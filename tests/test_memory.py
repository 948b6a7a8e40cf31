"""What a stored slot costs in bytes, and the summaries evicted cases share.

The held-bytes bound was set from a measurement on CPython 3.11 (93 B per
slot on the stream below) plus about 10%. A stored step that is two
objects, a ``Move`` and an ``AlignmentState`` pointing at it, holds 133 B
per slot there and fails it.
"""

from __future__ import annotations

import gc
import tracemalloc

from streamcc import (
    ConformanceEngine,
    CostModel,
    Policy,
    PolicyConfig,
    StreamSpec,
    cyclic_sequence_net,
    generate_log,
    replay,
)
from streamcc import petri
from streamcc.alignment import SummaryState

HELD_BYTES_PER_SLOT_BOUND = 103


def test_baseline_holds_few_bytes_per_stored_slot():
    net = cyclic_sequence_net(10)
    spec = StreamSpec(cases=30, open_cases=6, base_length=60, length_jitter=4, noise_probability=0.5)
    events = list(replay(generate_log(spec, seed=3)))
    # fill the net's successor and intern tables first: they are the net's, not the engine's
    warm = ConformanceEngine(net)
    for e in events:
        warm.process(e.case_id, e.activity, e.arrival_index)
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        engine = ConformanceEngine(net)
        for e in events:
            engine.process(e.case_id, e.activity, e.arrival_index)
        gc.collect()
        # the current size, not the peak: the peak moves with CPython's free lists
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slots = engine.stored_state_count
    assert slots > 1000
    assert held / slots <= HELD_BYTES_PER_SLOT_BOUND, f"{held / slots:.1f} B per slot"


def _run_bounded_cases(monkeypatch, cap: int):
    monkeypatch.setattr(petri, "SUCCESSOR_TABLE_CAP", cap)
    net = cyclic_sequence_net(10)
    config = PolicyConfig(Policy.BOUNDED_CASES, n=5, cost_model=CostModel(0.05, 0.1, 0.3, 0.01))
    engine = ConformanceEngine(net, config)
    spec = StreamSpec(cases=300, open_cases=40, base_length=8, noise_probability=0.5)
    outcomes = []
    for e in replay(generate_log(spec, seed=11)):
        outcomes.append(repr(engine.process(e.case_id, e.activity, e.arrival_index)))
        assert len(engine._shared_summaries) <= cap
    return engine, outcomes


def test_evicted_cases_share_equal_summaries_up_to_the_cap(monkeypatch):
    shared, shared_outcomes = _run_bounded_cases(monkeypatch, 16)
    unshared, unshared_outcomes = _run_bounded_cases(monkeypatch, 0)
    assert shared_outcomes == unshared_outcomes
    summaries = [s for _, s in shared.repo.items()]
    assert len(summaries) > 200
    # the table is full, and R_C holds both shared summaries and, past the
    # cap, equal summaries built afresh
    assert len(shared._shared_summaries) == 16
    objects = len({id(s) for s in summaries})
    assert len({(s.kappa_o, s.carry_marking) for s in summaries}) < objects < len(summaries)
    assert not unshared._shared_summaries
    # an int 0 kappa_o would print as 0, not 0.0, and change every digest of the outcomes
    for engine in (shared, unshared):
        for _, summary in engine.repo.items():
            assert isinstance(summary, SummaryState)
            assert type(summary.kappa_o) is float
