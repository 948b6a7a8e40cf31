from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from streamcc import PetriNet, ValidationError
from streamcc.errors import FiringNotEnabled
from streamcc.petri import Marking

from oracles import random_net


def _tokens(marking: Marking) -> int:
    return sum(count for _, count in marking.entries)


class TestMarking:
    def test_canonical_form_drops_zero_counts(self):
        assert Marking.of({"a": 1, "b": 0}) == Marking.of({"a": 1})

    def test_equality_is_canonical(self):
        assert Marking.of(["a", "b", "a"]) == Marking.of({"b": 1, "a": 2})

    def test_hashable_and_usable_as_key(self):
        store = {Marking.of({"p": 1}): "x"}
        assert store[Marking.of({"p": 1})] == "x"

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
        net = PetriNet.build(
            places=["p"], transitions={"t": "T"}, arcs=[("t", "p")], initial={}, final={"p": 1}
        )
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

    def test_is_final(self, seq_abc):
        assert not seq_abc.is_final(Marking.of({"s": 1}))
        assert seq_abc.is_final(Marking.of({"f": 1}))


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
