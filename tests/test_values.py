"""The value types made per event or per state carry only their fields.

They are slotted dataclasses or named tuples: no instance ``__dict__``,
so a stored state costs its fields and nothing more. ``experiment
--jobs`` pickles nets, events and configs into worker processes, so
each type must also survive a pickle round trip unchanged. All but the
case record, which holds only its case's id and alignment, are frozen,
and refuse assignment and deletion with a frozen dataclass's
``FrozenInstanceError``. The four built on every event are named
tuples, ``AlignmentState``, ``PrefixAlignment``, ``EventOutcome`` and
the logged ``Event``, and keep their constructor's parameters, defaults
and ``moves_cost`` rule in ``__new__``. The reprs of ``EventOutcome``
and ``AlignmentState`` are pinned as the dataclasses printed them,
because digests hash that text; a ``PrefixAlignment`` compares, hashes
and prints as the named tuple of its five fields. A
``StreamEvent`` stays a slotted dataclass; ``replay`` and
``replicate_events`` build it without its ``__init__``, and what they
build must equal, print and pickle as what the constructor builds.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import json
import os
import pickle
import subprocess
import sys
from datetime import datetime
from pathlib import Path

import pytest

from streamcc import PrefixAlignment, cyclic_sequence_net
from streamcc.alignment import AlignmentState, MoveKind, fold_move_costs
from streamcc.petri import Marking
from streamcc.policies import CaseRecord, EventOutcome, Method
from streamcc.streams import Event, EventLog, StreamEvent, replay, replicate_events

_MARKING = Marking.of({"p1": 1, "p2": 2})
# the summary repository's entry for a forgotten case: a summary-only alignment
_SUMMARY = PrefixAlignment(_MARKING, (), 1.5, 0)
_PREFIX = PrefixAlignment(
    _MARKING,
    (
        AlignmentState(MoveKind.SYNCHRONOUS, "A", "t1", 0, 0.0, Marking.of({"p2": 1})),
        AlignmentState(MoveKind.LOG, "Z", None, 1, 1.0, Marking.of({"p2": 1})),
    ),
    _SUMMARY.summary,
)
_OUTCOME = EventOutcome("c1", "A", 7, 2.5, False, Method.SHORTEST_PATH, 1.5)
_WHEN = datetime(2024, 1, 2, 3, 4, 5)
_EVENT = Event(3, "c1", "A", _WHEN)

VALUES = [
    _MARKING,
    _PREFIX.states[0],
    _SUMMARY,
    _PREFIX,
    CaseRecord("c1", _PREFIX),
    _OUTCOME,
    StreamEvent("c1", "A", 7, _WHEN),
    _EVENT,
]


def _value_id(value) -> str:
    return "summary-only-PrefixAlignment" if value is _SUMMARY else type(value).__name__


def _field_names(value) -> list[str]:
    """The value's field names in order, whether it is a dataclass or a named tuple."""
    if dataclasses.is_dataclass(value):
        return [f.name for f in dataclasses.fields(value)]
    return list(value._fields)


@pytest.mark.parametrize("value", VALUES, ids=_value_id)
class TestSlottedValues:
    def test_has_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        assert "__slots__" in type(value).__dict__

    def test_pickle_round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is type(value)
        assert copy == value
        assert repr(copy) == repr(value)


# the store's record is updated in place as its case's events arrive
MUTABLE = (CaseRecord,)


@pytest.mark.parametrize(
    "value", [v for v in VALUES if not isinstance(v, MUTABLE)], ids=_value_id
)
def test_fields_cannot_be_assigned(value):
    for name in _field_names(value):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
            setattr(value, name, getattr(value, name))


@pytest.mark.parametrize(
    "value", [v for v in VALUES if not isinstance(v, MUTABLE)], ids=_value_id
)
def test_fields_cannot_be_deleted(value):
    for name in _field_names(value):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
            delattr(value, name)


# The values built on every event are named tuples with a __new__ of their own.
PER_EVENT_VALUES = [
    v for v in VALUES if isinstance(v, (AlignmentState, PrefixAlignment, EventOutcome, Event))
]


@pytest.mark.parametrize("value", PER_EVENT_VALUES, ids=_value_id)
class TestPerEventConstructor:
    def test_parameters_are_the_fields_with_their_defaults(self, value):
        cls = type(value)
        parameters = list(inspect.signature(cls.__new__).parameters.values())[1:]
        assert [p.name for p in parameters] == list(cls._fields)
        for p in parameters:
            assert p.default == cls._field_defaults.get(p.name, inspect.Parameter.empty), p.name

    def test_replace_builds_an_equal_value(self, value):
        copy = value._replace()
        assert copy == value
        assert repr(copy) == repr(value)


@pytest.mark.parametrize("value", [_PREFIX, _OUTCOME, _EVENT], ids=_value_id)
def test_from_fields_builds_an_equal_value(value):
    # the builder the engine and the parsers call: tuple.__new__ over all the fields
    built = type(value)._from_fields(tuple(value))
    assert type(built) is type(value)
    assert built == value
    assert repr(built) == repr(value)


def test_per_event_values_print_as_the_dataclasses_did():
    # outcome digests and search digests hash the outcome's and the steps' reprs;
    # an alignment prints as the named tuple of its five fields, moves_cost included
    assert repr(_OUTCOME) == (
        "EventOutcome(case_id='c1', activity='A', arrival_index=7, effective_cost=2.5, "
        "conformant=False, method=<Method.SHORTEST_PATH: 'shortest-path'>, residual_cost=1.5)"
    )
    marking = "Marking(entries=(('p1', 1), ('p2', 2)))"
    assert repr(_SUMMARY) == (
        f"PrefixAlignment(base_marking={marking}, states=(), summary=1.5, moves_cost=0, refs=())"
    )
    assert repr(_PREFIX) == (
        f"PrefixAlignment(base_marking={marking}, states={_PREFIX.states!r}, summary=1.5, "
        "moves_cost=1.0, refs=(0, 1))"
    )
    assert repr(_EVENT) == (
        "Event(event_id=3, case_id='c1', activity='A', timestamp=datetime.datetime(2024, 1, 2, 3, 4, 5))"
    )


def test_per_event_values_index_and_iterate_like_tuples():
    assert tuple(_OUTCOME) == ("c1", "A", 7, 2.5, False, Method.SHORTEST_PATH, 1.5)
    assert _OUTCOME[2] == _OUTCOME.arrival_index == 7
    # moves_cost is a field of the tuple like the others
    assert list(_PREFIX) == [_PREFIX.base_marking, _PREFIX.states, 1.5, 1.0, (0, 1)]


_LOG = EventLog(
    tuple(Event(i + 1, f"c{i % 2}", f"A{i}", datetime(2024, 1, 1, 0, 0, 5 - i)) for i in range(4))
)
_BUILT = {
    "replay": lambda: list(replay(_LOG)),
    "paced-replay": lambda: list(replay(_LOG, pace=1e-6)),
    "replicate_events": lambda: list(replicate_events(list(replay(_LOG)), 3)),
}


@pytest.mark.parametrize("build", _BUILT.values(), ids=_BUILT.keys())
def test_built_stream_events_are_as_the_constructor_builds_them(build):
    built = build()
    assert len(built) in (4, 12)
    for event in built:
        fresh = StreamEvent(event.case_id, event.activity, event.arrival_index, event.timestamp)
        assert type(event) is StreamEvent
        assert event == fresh and hash(event) == hash(fresh)
        assert repr(event) == repr(fresh)
        assert pickle.dumps(event) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(event)) == fresh
        for name in ("case_id", "activity", "arrival_index", "timestamp"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
                setattr(event, name, getattr(event, name))


_FRACTIONAL_STEPS = tuple(
    AlignmentState(MoveKind.LOG, "Z", None, i, cost, _MARKING) for i, cost in enumerate((0.7, 0.2, 0.1))
)


def test_omitted_moves_cost_is_the_left_to_right_fold():
    pa = PrefixAlignment(_MARKING, _FRACTIONAL_STEPS)
    assert pa.moves_cost.hex() == fold_move_costs(_FRACTIONAL_STEPS).hex() == ((0.7 + 0.2) + 0.1).hex()
    # a compensated sum rounds these costs to 1.0
    assert pa.moves_cost != 1.0


def test_given_moves_cost_is_kept_as_given():
    pa = PrefixAlignment(_MARKING, _FRACTIONAL_STEPS, None, 1.0)
    assert pa.moves_cost == 1.0
    assert PrefixAlignment(_MARKING, _FRACTIONAL_STEPS, moves_cost=9.5).moves_cost == 9.5
    # moves_cost is compared: 1.0 is not the fold of these costs, which rounds below it
    assert pa != PrefixAlignment(_MARKING, _FRACTIONAL_STEPS)
    assert pa == PrefixAlignment(_MARKING, _FRACTIONAL_STEPS, moves_cost=1.0)


def test_moves_cost_is_compared_and_hashed():
    # the empty and summary-only alignments carry the int 0, and an int
    # moves_cost equals and hashes as the float of the same value
    pa = PrefixAlignment(_MARKING, _FRACTIONAL_STEPS, None, 1)
    same = PrefixAlignment(_MARKING, _FRACTIONAL_STEPS, None, 1.0)
    assert type(pa.moves_cost) is int and type(same.moves_cost) is float
    assert pa == same and not pa != same
    assert hash(pa) == hash(same)
    empty, zero = PrefixAlignment.empty(_MARKING), PrefixAlignment(_MARKING, (), None, 0.0)
    assert type(empty.moves_cost) is int and type(zero.moves_cost) is float
    assert empty == zero and hash(empty) == hash(zero)
    other = PrefixAlignment(_MARKING, _FRACTIONAL_STEPS, None, 9.5)
    assert pa != other and not pa == other


def test_step_prints_its_move_nested():
    # digests of search results hash this text, so the step prints its
    # fields as a nested Move
    assert repr(_PREFIX.states) == (
        "(AlignmentState(move=Move(kind=<MoveKind.SYNCHRONOUS: 'synchronous'>, activity='A', "
        "transition='t1', event_ref=0), move_cost=0.0, marking_after=Marking(entries=(('p2', 1),))), "
        "AlignmentState(move=Move(kind=<MoveKind.LOG: 'log'>, activity='Z', transition=None, "
        "event_ref=1), move_cost=1.0, marking_after=Marking(entries=(('p2', 1),))))"
    )


def test_step_is_one_object():
    step = _PREFIX.states[0]
    # it refers to its field values and its type, and to no nested move object
    held = [getattr(step, name) for name in step._fields] + [type(step)]
    assert all(any(ref is value for value in held) for ref in gc.get_referents(step))
    assert not hasattr(step, "move")


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
    assert tuple(copy.enabled_transitions(marking)) == ("t1",)
