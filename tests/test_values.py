"""The value types made per event or per state carry only their fields.

They are slotted dataclasses: no instance ``__dict__``, so a stored
state costs its fields and nothing more. ``experiment --jobs`` pickles
nets, events and configs into worker processes, so each type must also
survive a pickle round trip unchanged.
"""

from __future__ import annotations

import pickle
from datetime import datetime

import pytest

from streamcc import PrefixAlignment, cyclic_sequence_net
from streamcc.alignment import AlignmentState, Move, SummaryState
from streamcc.petri import Marking
from streamcc.policies import CaseRecord, EventOutcome, Method
from streamcc.streams import Event, StreamEvent

_MARKING = Marking.of({"p1": 1, "p2": 2})
_SUMMARY = SummaryState(1.5, _MARKING)
_PREFIX = PrefixAlignment(
    _MARKING,
    (
        AlignmentState(Move.sync("A", "t1", 0), 0.0, Marking.of({"p2": 1})),
        AlignmentState(Move.log("Z", 1), 1.0, Marking.of({"p2": 1})),
    ),
    _SUMMARY,
)
_WHEN = datetime(2024, 1, 2, 3, 4, 5)

VALUES = [
    _MARKING,
    Move.sync("A", "t1", 0),
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


def test_pickled_prefix_alignment_keeps_its_running_cost():
    copy = pickle.loads(pickle.dumps(_PREFIX))
    assert copy.moves_cost == _PREFIX.moves_cost == 1.0
    assert copy.fitness_cost == 2.5


def test_pickled_net_fires_like_the_original():
    net = cyclic_sequence_net(4)
    copy = pickle.loads(pickle.dumps(net))
    assert copy == net
    marking = copy.fire(copy.initial_marking, "t0")
    assert marking == net.fire(net.initial_marking, "t0")
    assert copy.enabled_transitions(marking) == ("t1",)
