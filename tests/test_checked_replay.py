"""The bound check of ``oracles.checked_replay`` fails on a broken truncation rule.

Every acceptance test that replays a stream under a state limit relies
on ``checked_replay`` to see a case hold more than ``max(w, 2)`` slots.
These tests break the rule on each path an event takes, the extension
and the search, and require the check to fail at an event of that path.
"""

from __future__ import annotations

import pytest

from streamcc import alignment, policies
from streamcc.policies import ConformanceEngine, Method, Policy, PolicyConfig
from streamcc.streams import replay
from streamcc.synthetic import StreamSpec, cyclic_sequence_net, generate_log

from oracles import checked_replay


def _engine_recording_outcomes() -> tuple[ConformanceEngine, list]:
    engine = ConformanceEngine(cyclic_sequence_net(10), PolicyConfig(Policy.BOUNDED_STATES, w=2))
    outcomes = []
    process = engine.process

    def recorded(*args):
        outcomes.append(process(*args))
        return outcomes[-1]

    engine.process = recorded
    return engine, outcomes


def _stream(noise: float):
    return list(replay(generate_log(StreamSpec(cases=8, open_cases=3, noise_probability=noise), seed=5)))


def test_the_streams_pass_with_the_rule_intact():
    for noise in (0.0, 1.0):
        engine, outcomes = _engine_recording_outcomes()
        checked_replay(engine, _stream(noise))
        methods = {outcome.method for outcome in outcomes}
        assert methods == ({Method.MODEL_SEMANTICS} if noise == 0 else set(Method))


def test_no_truncation_fails_at_an_extended_event(monkeypatch):
    monkeypatch.setattr(alignment, "truncated_alignment", lambda *args: None)
    monkeypatch.setattr(policies, "truncated_alignment", lambda *args: None)
    engine, outcomes = _engine_recording_outcomes()
    with pytest.raises(AssertionError, match="holds 3 states"):
        checked_replay(engine, _stream(0.0))
    assert outcomes[-1].method is Method.MODEL_SEMANTICS


def test_no_truncation_after_a_search_fails_at_a_search_event(monkeypatch):
    monkeypatch.setattr(policies, "truncate_states", lambda pa, w: pa)
    engine, outcomes = _engine_recording_outcomes()
    with pytest.raises(AssertionError, match="holds [3-9] states"):
        checked_replay(engine, _stream(1.0))
    assert outcomes[-1].method is Method.SHORTEST_PATH
