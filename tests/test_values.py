"""The value types made per event or per state carry only their fields.

They are slotted dataclasses: no instance ``__dict__``, so a stored
state costs its fields and nothing more. ``experiment --jobs`` pickles
nets, events and configs into worker processes, so each type must also
survive a pickle round trip unchanged.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from streamcc import PrefixAlignment, cyclic_sequence_net
from streamcc.alignment import AlignmentState, Move, MoveKind, SummaryState
from streamcc.petri import Marking
from streamcc.policies import CaseRecord, EventOutcome, Method
from streamcc.streams import Event, StreamEvent

_MARKING = Marking.of({"p1": 1, "p2": 2})
_SUMMARY = SummaryState(1.5, _MARKING)
_PREFIX = PrefixAlignment(
    _MARKING,
    (
        AlignmentState(MoveKind.SYNCHRONOUS, "A", "t1", 0, 0.0, Marking.of({"p2": 1})),
        AlignmentState(MoveKind.LOG, "Z", None, 1, 1.0, Marking.of({"p2": 1})),
    ),
    _SUMMARY.kappa_o,
)
_WHEN = datetime(2024, 1, 2, 3, 4, 5)

VALUES = [
    _MARKING,
    Move(MoveKind.SYNCHRONOUS, "A", "t1", 0),
    _PREFIX.states[0],
    _SUMMARY,
    _PREFIX,
    CaseRecord("c1", _PREFIX, last_update=7),
    EventOutcome("c1", "A", 7, 2.5, False, Method.SHORTEST_PATH, 1.5),
    StreamEvent("c1", "A", 7, _WHEN),
    Event(3, "c1", "A", _WHEN),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
class TestSlottedValues:
    def test_has_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert "__slots__" in type(value).__dict__

    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        assert copy == value
        assert repr(copy) == repr(value)


def test_step_prints_its_move_nested():
    # digests of search results hash this text, so the step prints its
    # fields as a nested Move
    assert repr(_PREFIX.states) == (
        "(AlignmentState(move=Move(kind=<MoveKind.SYNCHRONOUS: 'synchronous'>, activity='A', "
        "transition='t1', event_ref=0), move_cost=0.0, marking_after=Marking(entries=(('p2', 1),))), "
        "AlignmentState(move=Move(kind=<MoveKind.LOG: 'log'>, activity='Z', transition=None, "
        "event_ref=1), move_cost=1.0, marking_after=Marking(entries=(('p2', 1),))))"
    )
    for step in _PREFIX.states:
        assert repr(step) == (
            f"AlignmentState(move={step.move!r}, move_cost={step.move_cost!r}, "
            f"marking_after={step.marking_after!r})"
        )


def test_step_is_one_object():
    step = _PREFIX.states[0]
    assert not any(isinstance(ref, Move) for ref in gc.get_referents(step))
    assert step.move == Move(MoveKind.SYNCHRONOUS, "A", "t1", 0)


def test_pickled_prefix_alignment_keeps_its_running_cost():
    copy = pickle.loads(pickle.dumps(_PREFIX))
    assert copy.moves_cost == _PREFIX.moves_cost == 1.0
    assert copy.fitness_cost == 2.5


# The sender pickles a net and a case's stored prefix-alignment; the
# receiver fires the case's transitions again on the unpickled net.
_SEND = """
import pickle, sys
from streamcc import ConformanceEngine, cyclic_sequence_net
net = cyclic_sequence_net(4)
engine = ConformanceEngine(net)
for t in ("t0", "t1", "t2"):
    engine.process("c1", net.labels[t])
sys.stdout.buffer.write(pickle.dumps((net, engine.store.get("c1").prefix_alignment)))
"""
_RECEIVE = """
import json, pickle, sys
net, prefix = pickle.loads(sys.stdin.buffer.read())
fresh = net.initial_marking
for t in ("t0", "t1", "t2"):
    fresh = net.fire(fresh, t)
stored = prefix.current_marking
print(json.dumps([str(stored), stored == fresh, hash(stored) == hash(fresh), stored in {fresh: 1}]))
"""


def test_unpickled_markings_hash_like_fresh_ones_across_hash_seeds():
    # str hashes are salted per process, so a marking's hash must be taken
    # again where it is unpickled
    src = Path(__file__).resolve().parents[1] / "src"

    def run(code: str, seed: str, stdin: bytes) -> bytes:
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed}
        return subprocess.run(
            [sys.executable, "-c", code], input=stdin, env=env, capture_output=True, check=True
        ).stdout

    sent = run(_SEND, "1", b"")
    assert json.loads(run(_RECEIVE, "2", sent)) == ["[s3]", True, True, True]


def test_pickled_net_fires_like_the_original():
    net = cyclic_sequence_net(4)
    copy = pickle.loads(pickle.dumps(net))
    assert copy == net
    marking = copy.fire(copy.initial_marking, "t0")
    assert marking == net.fire(net.initial_marking, "t0")
    assert copy.enabled_transitions(marking) == ("t1",)
