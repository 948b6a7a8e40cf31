from __future__ import annotations

import dataclasses
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
    Policy,
    PolicyConfig,
    StreamSpec,
    ValidationError,
    cyclic_sequence_net,
    extend_model_semantics,
    generate_log,
    replay,
    shortest_path_prefix_alignment,
)
from streamcc.alignment import PrefixAlignment
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


# place ids with the separators and digits of the encoding and non-ASCII
# characters, and counts of several digits
_TOKENS = st.dictionaries(st.text(":,*0123456789aé€"), st.integers(1, 10**6), max_size=5)

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
        assert hash(marking) == hash(reference)
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

    @given(_TOKENS, _TOKENS)
    def test_encoding_round_trips_and_is_injective(self, counts, other):
        marking = Marking.of(counts)
        assert marking.entries == tuple(sorted(counts.items()))
        assert Marking(marking.entries) == marking
        assert pickle.loads(pickle.dumps(marking)) == marking
        # the encodings, as plain strings, differ exactly when the markings do
        encoding, other_encoding = str.__str__(marking), str.__str__(Marking.of(other))
        assert (encoding == other_encoding) == (counts == other)
        assert (marking == Marking.of(other)) == (counts == other)

    @pytest.mark.parametrize("counts", [{}, {"p": 1}, {"1:p": 12, "p,2": 3}], ids=["empty", "one", "two"])
    def test_never_equals_a_plain_str(self, counts):
        marking = Marking.of(counts)
        for text in (str.__str__(marking), str(marking), repr(marking)):
            assert type(text) is str
            assert not marking == text and marking != text
            assert not text == marking and text != marking
            assert text not in {marking: 1} and marking not in {text: 1}

    def test_prints_its_entries(self):
        marking = Marking.of({"p1": 1, "p2": 2})
        assert repr(marking) == "Marking(entries=(('p1', 1), ('p2', 2)))"
        assert str(marking) == f"{marking}" == "%s" % marking == format(marking) == "[p1, p2^2]"
        assert f"{marking:>11}" == " [p1, p2^2]"
        assert "%r" % Marking.empty() == "Marking(entries=())" and f"{Marking.empty()}" == "[]"
        assert marking and not Marking.empty()

    def test_hashes_in_c(self):
        # a Python __hash__, or an __eq__ defined without pinning the hash
        # (which sets it to None), fails this
        assert Marking.__hash__ is str.__hash__

    @pytest.mark.parametrize(
        "operation",
        [
            lambda m: "p" in m,
            len,
            iter,
            list,
            lambda m: sorted([m, Marking.of({"aa": 1})]),
            lambda m: m < Marking.of({"aa": 1}),
            lambda m: m <= m,
            lambda m: m > Marking.empty(),
            lambda m: m >= m,
        ],
        ids=["contains", "len", "iter", "list", "sorted", "lt", "le", "gt", "ge"],
    )
    def test_refuses_the_str_operations_it_inherits(self, operation):
        # str would answer each from the encoding: a substring test, the
        # encoding's length or characters, the encodings' order
        with pytest.raises(TypeError):
            operation(Marking.of({"p1": 1, "b": 2}))

    @pytest.mark.parametrize(
        "other", [Marking.of({"p1": 1}), "x", "", 1, None], ids=["marking", "str", "empty-str", "int", "none"]
    )
    def test_orderings_refuse_any_operand(self, other):
        # a NotImplemented here would let str order the marking's encoding
        # against a plain str, so every operand is refused
        marking = Marking.of({"p1": 1})
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            with pytest.raises(TypeError, match="^markings are not ordered"):
                getattr(marking, name)(other)

    @pytest.mark.parametrize(
        "operation",
        [
            lambda m: m < "x",
            lambda m: m <= "x",
            lambda m: m > "x",
            lambda m: m >= "x",
            lambda m: "x" < m,
            lambda m: "x" <= m,
            lambda m: "x" > m,
            lambda m: "x" >= m,
            lambda m: sorted([m, "x"]),
            lambda m: sorted(["x", m]),
        ],
        ids=["lt", "le", "gt", "ge", "str-lt", "str-le", "str-gt", "str-ge", "sorted", "sorted-str-first"],
    )
    def test_does_not_order_against_a_str(self, operation):
        with pytest.raises(TypeError, match="^markings are not ordered"):
            operation(Marking.of({"p": 1}))

    def test_only_the_empty_marking_is_false(self):
        assert bool(Marking.of({"p": 1})) is True
        assert bool(Marking.of({"p": 3, "q": 1})) is True
        assert bool(Marking.empty()) is False
        assert bool(Marking.of({"p": 0})) is False

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Marking.of({"p": 1.5}), r"^token count of place 'p' must be an int, not 1\.5$"),
            (lambda: Marking.of({"p": True}), r"^token count of place 'p' must be an int, not True$"),
            (lambda: Marking.of({"p": 0.0}), r"^token count of place 'p' must be an int, not 0\.0$"),
            (lambda: Marking.of({"p": -1}), r"^non-positive token count -1 for place 'p'$"),
            (lambda: Marking.of({1: 1}), r"^place id must be a str, not 1$"),
            (lambda: Marking.of([None]), r"^place id must be a str, not None$"),
            (lambda: Marking((("p", 2.0),)), r"^token count of place 'p' must be an int, not 2\.0$"),
            (lambda: Marking((("p", 0),)), r"^non-positive token count 0 for place 'p'$"),
            (lambda: Marking(((b"p", 1),)), r"^place id must be a str, not b'p'$"),
            (lambda: Marking.of("p1"), r"^tokens must be a mapping or an iterable of place ids, not a str: 'p1'$"),
            (lambda: Marking.of(Marking.of(["p"])), r"not a str: Marking\(entries=\(\('p', 1\),\)\)$"),
        ],
        ids=["fraction", "bool", "float-zero", "negative", "int-place", "none-place",
             "constructor-float", "constructor-zero", "constructor-bytes-place", "str", "marking"],
    )
    def test_rejects_bad_entries(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


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

    def test_no_table_grows_past_the_cap(self, monkeypatch):
        uncapped = make_parallel_net(3, 2)
        markings = _reachable(uncapped)
        monkeypatch.setattr(petri, "SUCCESSOR_TABLE_CAP", 2)
        capped = make_parallel_net(3, 2)
        for marking in markings:
            assert capped.successors(marking) == uncapped.successors(marking)
            assert len(capped._table) <= 2 and len(capped._interned) <= 2
        assert len(markings) > 20

    def test_replay_past_the_caps_keeps_each_table_within_its_cap(self, monkeypatch):
        # 7 branches of depth 3 reach 4 ** 7 markings between the split and
        # the join: the replay needs more entries than each table's cap
        events = _parallel_stream(7, 3, cases=300, seed=1)

        def replayed() -> tuple[PetriNet, list[str]]:
            net = make_parallel_net(7, 3)
            engine = ConformanceEngine(net)
            return net, [repr(engine.process(c, a, i)) for i, (c, a) in enumerate(events)]

        capped, outcomes = replayed()
        cap, step_cap = petri.SUCCESSOR_TABLE_CAP, petri.STEP_TABLE_CAP
        monkeypatch.setattr(petri, "SUCCESSOR_TABLE_CAP", 2**20)
        monkeypatch.setattr(petri, "STEP_TABLE_CAP", 2**20)
        uncapped, uncapped_outcomes = replayed()
        assert outcomes == uncapped_outcomes

        def sizes(net: PetriNet) -> tuple[int, int, int, int]:
            sync_entries = sum(len(by_marking) for by_marking in net._sync_steps.values())
            return len(net._table), len(net._interned), sync_entries, len(net._steps)

        table, interned, sync_entries, steps = sizes(capped)
        assert max(table, interned, sync_entries) <= cap and steps <= step_cap
        # with the caps raised, the same replay fills each table past its cap
        table, interned, sync_entries, steps = sizes(uncapped)
        assert min(table, interned, sync_entries) > cap and steps > step_cap

    def test_pickled_net_carries_no_table(self, branching_net):
        size = len(pickle.dumps(branching_net))
        shortest_path_prefix_alignment(branching_net, branching_net.initial_marking, list("AEFGH"))
        pa = PrefixAlignment.empty(branching_net.initial_marking)
        assert extend_model_semantics(branching_net, pa, "A", 0) is not None
        assert extend_model_semantics(branching_net, pa, "E", 0) is None
        assert branching_net._table and branching_net._steps
        assert len(branching_net._sync_steps["A"]) == len(branching_net._sync_steps["E"]) == 1
        assert Marking.of(["p4", "p5"]) in branching_net._interned
        assert len(pickle.dumps(branching_net)) == size
        copy = pickle.loads(pickle.dumps(branching_net))
        assert copy == branching_net and not copy._table and not copy._interned and not copy._steps
        assert set(copy._sync_steps) == set(branching_net._sync_steps)
        assert not any(copy._sync_steps.values())
        assert copy.enabled_transitions(copy.initial_marking) == ("t1",)
        # the copy fills its own tables
        assert extend_model_semantics(copy, pa, "A", 0) == extend_model_semantics(branching_net, pa, "A", 0)
        assert len(copy._sync_steps["A"]) == 1

    def test_net_pickles_as_its_fields(self, branching_net):
        # everything else is derived again by the net that loads the pickle
        shortest_path_prefix_alignment(branching_net, branching_net.initial_marking, list("AEFGH"))
        state = branching_net.__getstate__()
        assert list(state) == [f.name for f in dataclasses.fields(PetriNet)]
        assert all(state[name] is getattr(branching_net, name) for name in state)
        copy = pickle.loads(pickle.dumps(branching_net))
        for name in ("_preset", "_postset", "_by_label"):
            assert getattr(copy, name) == getattr(branching_net, name)

    def test_threads_sharing_a_net_get_the_single_threaded_results(self):
        cases = _random_cases(40)
        nets = {seed: _seeded_net(seed) for seed, _ in cases}
        expected = {seed: _search_reprs(_seeded_net(seed), traces) for seed, traces in cases}
        results = _in_threads(lambda: {seed: _search_reprs(nets[seed], traces) for seed, traces in cases})
        assert all(out == expected for out in results)

    def test_engines_sharing_a_net_in_threads_get_the_single_threaded_outcomes(self, monkeypatch):
        spec = StreamSpec(cases=40, open_cases=8, base_length=12, noise_probability=0.5)
        events = list(replay(generate_log(spec, seed=5)))
        config = PolicyConfig(Policy.COMBINED, w=3, n=4)

        def outcomes(net: PetriNet) -> list[str]:
            engine = ConformanceEngine(net, config)
            return [repr(engine.process(e.case_id, e.activity, e.arrival_index)) for e in events]

        expected = outcomes(cyclic_sequence_net(spec.model_steps))
        # the threads race past the synchronous-step table's cap too; it takes
        # one ticket per entry, so it keeps at most the cap
        monkeypatch.setattr(petri, "SUCCESSOR_TABLE_CAP", 8)
        shared = cyclic_sequence_net(spec.model_steps)
        results = _in_threads(lambda: outcomes(shared))
        assert all(out == expected for out in results)
        assert sum(len(by_marking) for by_marking in shared._sync_steps.values()) <= 8


def _parallel_stream(branches: int, depth: int, cases: int, seed: int) -> list[tuple[str, str]]:
    """``(case id, activity)`` events of random interleavings of ``make_parallel_net``'s branches.

    Three cases in ten deviate once, in the middle of the trace: by an
    alien event or by a skipped one, in turn. Eight cases are open at a time.
    """
    rng = random.Random(seed)
    traces = []
    for case in range(cases):
        reached = {k: 0 for k in range(1, branches + 1)}
        trace = []
        while reached:
            k = rng.choice(sorted(reached))
            reached[k] += 1
            trace.append(f"B{k}{reached[k]}")
            if reached[k] == depth:
                del reached[k]
        if case % 10 in (0, 3, 6):
            if case % 2:
                del trace[len(trace) // 2]
            else:
                trace.insert(len(trace) // 2, "alien")
        traces.append((f"c{case}", trace))
    events = []
    open_cases: list[tuple[str, list[str]]] = []
    while traces or open_cases:
        while traces and len(open_cases) < 8:
            open_cases.append(traces.pop(0))
        case_id, trace = open_cases[rng.randrange(len(open_cases))]
        events.append((case_id, trace.pop(0)))
        open_cases = [(c, t) for c, t in open_cases if t]
    return events


def _in_threads(task, count: int = 4) -> list:
    """What ``task()`` returns in each of ``count`` threads that start it together.

    All threads start on the same empty tables, so they race to fill
    them, switching as often as the interpreter lets them.
    """
    results: list = [None] * count
    errors: list[Exception] = []
    start = threading.Barrier(count, timeout=60)

    def work(index: int) -> None:
        try:
            start.wait()
            results[index] = task()
        except Exception as exc:  # reported by the calling thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    return results


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
