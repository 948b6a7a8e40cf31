from __future__ import annotations

import pickle
import random
import sys
import threading
from functools import partial

import pytest
from hypothesis import given, strategies as st

from streamcc import (
    ConformanceEngine,
    PetriNet,
    ValidationError,
    cyclic_sequence_net,
    shortest_path_prefix_alignment,
)
from streamcc import petri
from streamcc.errors import FiringNotEnabled
from streamcc.petri import Marking

from conftest import make_branching_net, make_parallel_net
from oracles import random_net, random_trace


def _tokens(marking: Marking) -> int:
    return sum(count for _, count in marking.entries)


def _fired_p4_p5() -> Marking:
    net = make_branching_net()
    return net.fire(net.fire(net.initial_marking, "t1"), "t5")


# every way of building the marking [p4, p5]; each must hash like the others
_BUILDS = {
    "of_mapping": lambda: Marking.of({"p5": 1, "p4": 1}),
    "of_places": lambda: Marking.of(["p5", "p4"]),
    "constructor": lambda: Marking((("p4", 1), ("p5", 1))),
    "fired": _fired_p4_p5,
    "unpickled": lambda: pickle.loads(pickle.dumps(_fired_p4_p5())),
}


class TestMarking:
    def test_canonical_form_drops_zero_counts(self):
        assert Marking.of({"a": 1, "b": 0}) == Marking.of({"a": 1})

    def test_equality_is_canonical(self):
        assert Marking.of(["a", "b", "a"]) == Marking.of({"b": 1, "a": 2})

    @pytest.mark.parametrize("build", list(_BUILDS.values()), ids=list(_BUILDS))
    def test_hashable_and_usable_as_key(self, build):
        marking = build()
        reference = Marking.of({"p4": 1, "p5": 1})
        assert marking == reference
        assert hash(marking) == hash(reference) == hash(marking.entries)
        assert {reference: "x"}[marking] == "x"
        assert {marking: "x"}[reference] == "x"

    def test_str_uses_bracket_notation(self):
        assert str(Marking.of({"p1": 1, "p2": 2})) == "[p1, p2^2]"
        assert str(Marking.empty()) == "[]"

    def test_rejects_noncanonical_direct_construction(self):
        with pytest.raises(ValueError):
            Marking((("b", 1), ("a", 1)))
        with pytest.raises(ValueError):
            Marking((("a", 0),))

    @given(st.dictionaries(st.sampled_from("abcde"), st.integers(0, 4)))
    def test_count_roundtrip(self, counts):
        marking = Marking.of(counts)
        stored = marking.as_dict()
        for place, count in counts.items():
            assert stored.get(place, 0) == count
        assert _tokens(marking) == sum(counts.values())


class TestEnabledAndFire:
    def test_only_entry_enabled_initially(self, branching_net):
        assert branching_net.enabled_transitions(branching_net.initial_marking) == ("t1",)

    def test_empty_marking_enables_nothing(self, seq_abc):
        assert seq_abc.enabled_transitions(Marking.empty()) == ()

    def test_zero_input_transition_always_enabled(self):
        net = _unbounded_net()
        assert net.enabled_transitions(Marking.empty()) == ("t",)

    def test_enabled_in_transition_id_order(self):
        ids = ["t2", "t10", "a", "t1"]
        net = PetriNet.build(
            places=["p"], transitions={t: t.upper() for t in ids},
            arcs=[(t, "p") for t in ids], initial={}, final={"p": 1},
        )
        assert net.enabled_transitions(Marking.empty()) == ("a", "t1", "t10", "t2")

    def test_seq_abc_enabled_at_q1(self, seq_abc):
        # independent enumeration of the three transitions' input places
        expected = set()
        marking = Marking.of({"q1": 1})
        for t in seq_abc.transitions:
            inputs = [src for src, dst in seq_abc.arcs if dst == t]
            if all(marking.as_dict().get(p, 0) >= 1 for p in inputs):
                expected.add(t)
        assert expected == {"B"}
        assert seq_abc.enabled_transitions(marking) == ("B",)

    def test_fire_entry(self, branching_net):
        after = branching_net.fire(branching_net.initial_marking, "t1")
        assert after == Marking.of({"p1": 1})

    def test_firing_sequence_reaches_p3(self, branching_net):
        marking = branching_net.initial_marking
        for t in ("t1", "t2", "t3"):
            marking = branching_net.fire(marking, t)
        assert marking == Marking.of({"p3": 1})

    def test_complete_sequence_reaches_final(self, branching_net):
        marking = branching_net.initial_marking
        for t in ("t1", "t2", "t3", "t4"):
            marking = branching_net.fire(marking, t)
        assert branching_net.is_final(marking)

    def test_parallel_split_produces_two_tokens(self, branching_net):
        marking = branching_net.fire(branching_net.initial_marking, "t1")
        marking = branching_net.fire(marking, "t5")
        assert marking == Marking.of({"p4": 1, "p5": 1})
        assert branching_net.enabled_transitions(marking) == ("t6", "t7")

    def test_fire_seq_abc(self, seq_abc):
        assert seq_abc.fire(seq_abc.initial_marking, "A") == Marking.of({"q1": 1})

    def test_fire_not_enabled_raises(self, seq_abc):
        with pytest.raises(FiringNotEnabled):
            seq_abc.fire(seq_abc.initial_marking, "C")

    def test_unknown_transition_is_not_enabled_and_does_not_fire(self, seq_abc):
        assert not seq_abc.is_enabled(seq_abc.initial_marking, "nope")
        with pytest.raises(FiringNotEnabled):
            seq_abc.fire(seq_abc.initial_marking, "nope")

    def test_is_final(self, seq_abc):
        assert not seq_abc.is_final(Marking.of({"s": 1}))
        assert seq_abc.is_final(Marking.of({"f": 1}))


def _unbounded_net() -> PetriNet:
    """One transition without input places: every marking enables it."""
    return PetriNet.build(
        places=["p"], transitions={"t": "T"}, arcs=[("t", "p")], initial={}, final={"p": 1}
    )


def _search_reprs(net: PetriNet, traces: list[list[str]]) -> list[str]:
    return [repr(shortest_path_prefix_alignment(net, net.initial_marking, trace)) for trace in traces]


def _seeded_net(seed: int) -> PetriNet:
    return random_net(random.Random(seed))


def _random_cases(count: int) -> list[tuple[int, list[list[str]]]]:
    """``(net seed, traces)`` pairs; ``_seeded_net(seed)`` rebuilds the net."""
    cases = []
    for seed in range(300, 300 + count):
        rng = random.Random(seed)
        net = random_net(rng)
        cases.append((seed, [random_trace(net, rng, max_len=8) for _ in range(4)]))
    return cases


class TestSuccessorTable:
    def test_searches_past_the_cap_match_a_fresh_net(self, monkeypatch):
        cases = [(partial(_seeded_net, seed), traces) for seed, traces in _random_cases(15)]
        cases.append((_unbounded_net, [["T", "T", "X", "T"], ["X", "T", "T", "T", "T", "T"]]))
        expected = [_search_reprs(make(), traces) for make, traces in cases]

        monkeypatch.setattr(petri, "SUCCESSOR_TABLE_CAP", 2)
        for (make, traces), reprs in zip(cases, expected):
            net = make()
            for trace, expected_repr in zip(traces, reprs):
                assert _search_reprs(net, [trace]) == [expected_repr]
                assert len(net._table) <= 2 and len(net._interned) <= 2

    def test_fire_returns_one_object_per_marking(self, branching_net):
        start = branching_net.initial_marking
        assert branching_net.fire(start, "t1") is branching_net.fire(start, "t1")
        split = branching_net.fire(branching_net.fire(start, "t1"), "t5")
        f_then_g = branching_net.fire(branching_net.fire(split, "t6"), "t7")
        g_then_f = branching_net.fire(branching_net.fire(split, "t7"), "t6")
        assert f_then_g is g_then_f

    def test_cases_reaching_one_marking_share_it(self, branching_net):
        engine = ConformanceEngine(branching_net)
        for case_id, trace in (("c1", "AEFG"), ("c2", "AEGF")):
            for activity in trace:
                engine.process(case_id, activity)
        first, second = (engine.store.get(c).prefix_alignment.current_marking for c in ("c1", "c2"))
        assert first == Marking.of({"p6": 1, "p7": 1})
        assert first is second

    def test_markings_reached_by_firing_share_equal_pairs(self):
        net = make_parallel_net(3, 2)
        reached = [m for marking in _reachable(net) for m in net.successors(marking).values()]
        pairs = [pair for marking in reached for pair in marking.entries]
        shared: dict[tuple[str, int], tuple[str, int]] = {}
        for pair in pairs:
            assert shared.setdefault(pair, pair) is pair
        # 3 branches of 3 places each, the join's output place, and nothing more
        assert len(shared) == 10 < len(pairs)

    def test_no_table_grows_past_the_cap(self, monkeypatch):
        uncapped = make_parallel_net(3, 2)
        markings = _reachable(uncapped)
        monkeypatch.setattr(petri, "SUCCESSOR_TABLE_CAP", 2)
        capped = make_parallel_net(3, 2)
        for marking in markings:
            assert capped.successors(marking) == uncapped.successors(marking)
            assert len(capped._table) <= 2 and len(capped._interned) <= 2
        assert len(markings) > 20

    def test_pickled_net_carries_no_table(self, branching_net):
        size = len(pickle.dumps(branching_net))
        shortest_path_prefix_alignment(branching_net, branching_net.initial_marking, list("AEFGH"))
        assert branching_net._table and branching_net._steps
        # the intern table holds the (place, count) pairs as well as the markings
        assert ("p4", 1) in branching_net._interned and Marking.of(["p4", "p5"]) in branching_net._interned
        assert len(pickle.dumps(branching_net)) == size
        copy = pickle.loads(pickle.dumps(branching_net))
        assert copy == branching_net and not copy._table and not copy._interned and not copy._steps
        assert copy.enabled_transitions(copy.initial_marking) == ("t1",)

    def test_threads_sharing_a_net_get_the_single_threaded_results(self):
        cases = _random_cases(40)
        nets = {seed: _seeded_net(seed) for seed, _ in cases}
        expected = {seed: _search_reprs(_seeded_net(seed), traces) for seed, traces in cases}
        results: list[dict] = [{} for _ in range(4)]
        errors: list[Exception] = []
        # all threads start on the same empty tables, so they race to fill them
        start = threading.Barrier(len(results), timeout=60)

        def work(out: dict) -> None:
            try:
                start.wait()
                for seed, traces in cases:
                    out[seed] = _search_reprs(nets[seed], traces)
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(out == expected for out in results)


def _reachable(net: PetriNet) -> list[Marking]:
    seen = [net.initial_marking]
    for marking in seen:  # seen grows while it is walked: breadth first
        for reached in net.successors(marking).values():
            if reached not in seen:
                seen.append(reached)
    return seen


class TestSuccessorsAccessor:
    @pytest.mark.parametrize(
        "make", [partial(_seeded_net, seed) for seed in range(5)] + [partial(cyclic_sequence_net, 10)]
    )
    def test_views_read_the_entry(self, make):
        net = make()
        markings = _reachable(net)
        assert len(markings) > 1
        for marking in markings:
            entry = net.successors(marking)
            assert tuple(entry) == net.enabled_transitions(marking)
            for t in sorted(net.transitions):
                assert net.is_enabled(marking, t) == (t in entry)
                if t in entry:
                    assert net.fire(marking, t) is entry[t]


class TestValidation:
    def test_dangling_arc_rejected(self):
        with pytest.raises(ValidationError):
            PetriNet.build(
                places=["p"], transitions={"t": "T"}, arcs=[("p", "missing")],
                initial={"p": 1}, final={},
            )

    def test_place_to_place_arc_rejected(self):
        with pytest.raises(ValidationError):
            PetriNet.build(
                places=["p", "q"], transitions={"t": "T"}, arcs=[("p", "q")],
                initial={}, final={},
            )

    def test_marking_over_unknown_place_rejected(self):
        with pytest.raises(ValidationError):
            PetriNet.build(
                places=["p"], transitions={"t": "T"}, arcs=[("p", "t")],
                initial={"nope": 1}, final={},
            )

    def test_shared_place_transition_id_rejected(self):
        with pytest.raises(ValidationError):
            PetriNet.build(
                places=["x"], transitions={"x": "X"}, arcs=[],
                initial={}, final={},
            )


class TestFiringProperties:
    def test_token_count_change_matches_arc_counts(self):
        for seed in range(25):
            rng = random.Random(seed)
            net = random_net(rng)
            marking = net.initial_marking
            for _ in range(12):
                enabled = sorted(net.enabled_transitions(marking))
                if not enabled:
                    break
                t = rng.choice(enabled)
                after = net.fire(marking, t)
                outputs = sum(1 for source, _ in net.arcs if source == t)
                inputs = sum(1 for _, target in net.arcs if target == t)
                assert _tokens(after) - _tokens(marking) == outputs - inputs
                marking = after

    def test_firing_changes_enabledness_only_near_fired_transition(self):
        for seed in range(25):
            rng = random.Random(seed + 100)
            net = random_net(rng)
            marking = net.initial_marking
            for _ in range(10):
                enabled = sorted(net.enabled_transitions(marking))
                if not enabled:
                    break
                t = rng.choice(enabled)
                after = net.fire(marking, t)
                before_set = set(net.enabled_transitions(marking))
                after_set = set(net.enabled_transitions(after))  # must not raise
                touched = {p for p, q in net.arcs if q == t} | {q for p, q in net.arcs if p == t}
                neighbors = {
                    other
                    for other in net.transitions
                    if touched & set(net.preset(other))
                }
                assert (before_set ^ after_set) <= neighbors
                marking = after


class TestSemanticsMatchArcs:
    def test_enabled_is_enabled_and_fire_follow_the_input_arcs(self):
        partly_marked = 0
        for seed in range(40):
            rng = random.Random(seed + 200)
            net = random_net(rng)
            inputs = {t: {p for p, q in net.arcs if q == t} for t in net.transitions}
            marking = net.initial_marking
            for _ in range(15):
                marked = {p for p, _ in marking.entries}
                expected = tuple(sorted(t for t in net.transitions if inputs[t] <= marked))
                enabled = net.enabled_transitions(marking)
                assert enabled == expected
                for t in sorted(net.transitions):
                    assert net.is_enabled(marking, t) == (t in enabled)
                    if t in enabled:
                        net.fire(marking, t)
                        continue
                    partly_marked += bool(inputs[t] & marked)
                    with pytest.raises(FiringNotEnabled):
                        net.fire(marking, t)
                marking = net.fire(marking, rng.choice(enabled))
        # the join t7 with only one of its two input places marked
        assert partly_marked > 0
