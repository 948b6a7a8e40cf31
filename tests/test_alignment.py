from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from streamcc import (
    DEFAULT_COST_MODEL,
    ConformanceEngine,
    CostModel,
    PetriNet,
    Policy,
    PolicyConfig,
    PrefixAlignment,
    SearchBudgetExceeded,
    StreamSpec,
    cyclic_sequence_net,
    extend_model_semantics,
    generate_log,
    petri,
    replay,
    shortest_path_prefix_alignment,
)
from streamcc.alignment import AlignmentState, MoveKind
from streamcc.errors import BoundBelowOptimum
from streamcc.petri import Marking
from streamcc.policies import Method, truncate_states

from oracles import brute_force_min_cost, consumes_event, log_step, random_net, random_trace


MARKING = Marking.of({"p": 1})


class TestMoveInvariants:
    def test_sync_requires_activity_and_transition(self):
        move = AlignmentState(MoveKind.SYNCHRONOUS, "A", "t1", 0, 0.0, MARKING)
        assert move.activity == "A" and move.transition == "t1"
        with pytest.raises(ValueError):
            AlignmentState(MoveKind.SYNCHRONOUS, "A", None, None, 0.0, MARKING)

    def test_log_move_has_no_transition(self):
        with pytest.raises(ValueError):
            AlignmentState(MoveKind.LOG, "A", "t1", None, 0.0, MARKING)

    def test_model_move_has_no_activity(self):
        with pytest.raises(ValueError):
            AlignmentState(MoveKind.MODEL, "A", "t1", None, 0.0, MARKING)

    @pytest.mark.parametrize("kind", list(MoveKind))
    def test_each_kind_accepts_exactly_one_shape(self, kind):
        expected = {
            MoveKind.SYNCHRONOUS: (True, True),
            MoveKind.LOG: (True, False),
            MoveKind.MODEL: (False, True),
            MoveKind.SILENT_MODEL: (False, True),
        }
        accepted = []
        for activity in ("A", None):
            for transition in ("t1", None):
                try:
                    AlignmentState(kind, activity, transition, None, 0.0, MARKING)
                except ValueError:
                    continue
                accepted.append((activity is not None, transition is not None))
        assert accepted == [expected[kind]]

    def test_kind_must_be_a_move_kind(self):
        # a str kind would never consume its event in log_projection
        with pytest.raises(ValueError, match="unknown move kind"):
            AlignmentState("synchronous", "A", "t1", None, 0.0, MARKING)

    def test_cost_model_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel(log_cost=-1)

    @pytest.mark.parametrize("name", ["sync_cost", "log_cost", "model_cost", "silent_model_cost"])
    def test_cost_model_rejects_nan_and_names_the_field(self, name):
        # NaN < 0 is false, so a plain "< 0" check lets NaN through
        with pytest.raises(ValueError, match=name):
            CostModel(**{name: math.nan})
        assert getattr(CostModel(**{name: math.inf}), name) == math.inf

    def test_default_costs(self):
        from streamcc import DEFAULT_COST_MODEL

        assert DEFAULT_COST_MODEL.sync_cost == 0.0
        assert DEFAULT_COST_MODEL.silent_model_cost == 0.0
        assert DEFAULT_COST_MODEL.log_cost == 1.0
        assert DEFAULT_COST_MODEL.model_cost == 1.0


class TestExtendModelSemantics:
    def test_first_enabled_label(self, seq_abc):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        extended = extend_model_semantics(seq_abc, pa, "A", 0)
        assert extended is not None
        assert len(extended.states) == 1
        assert extended.states[0].kind is MoveKind.SYNCHRONOUS
        assert extended.current_marking == Marking.of({"q1": 1})
        assert extended.fitness_cost == 0

    def test_not_enabled_returns_none(self, seq_abc):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        assert extend_model_semantics(seq_abc, pa, "C", 0) is None

    def test_does_not_mutate_input(self, seq_abc):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        extend_model_semantics(seq_abc, pa, "A", 0)
        assert pa.states == ()

    def test_two_sync_extension_is_optimal(self, branching_net):
        pa = PrefixAlignment.empty(branching_net.initial_marking)
        pa = extend_model_semantics(branching_net, pa, "A", 0)
        pa = extend_model_semantics(branching_net, pa, "B", 1)
        assert pa is not None
        assert [s.transition for s in pa.states] == ["t1", "t2"]
        # frozen oracle value: brute force over <A,B> on this net
        assert brute_force_min_cost(branching_net, branching_net.initial_marking, ["A", "B"]) == 0.0
        assert pa.fitness_cost == 0.0

    def test_lowest_transition_id_wins_for_shared_labels(self):
        net = PetriNet.build(
            places=["p", "q1", "q2"],
            transitions={"t1": "A", "t2": "A"},
            arcs=[("p", "t1"), ("t1", "q1"), ("p", "t2"), ("t2", "q2")],
            initial={"p": 1},
            final={"q1": 1},
        )
        pa = extend_model_semantics(net, PrefixAlignment.empty(net.initial_marking), "A", 0)
        assert pa.states[0].transition == "t1"
        # t1 waits for a token on r, so the next transition carrying A fires
        net = PetriNet.build(
            places=["p", "r", "q1", "q2"],
            transitions={"t1": "A", "t2": "A"},
            arcs=[("r", "t1"), ("t1", "q1"), ("p", "t2"), ("t2", "q2")],
            initial={"p": 1},
            final={"q2": 1},
        )
        pa = extend_model_semantics(net, PrefixAlignment.empty(net.initial_marking), "A", 0)
        assert pa.states[0].transition == "t2"
        assert pa.current_marking == Marking.of({"q2": 1})

    def test_no_tau_closure(self):
        # B is only reachable through a silent hop; direct enabledness fails
        net = PetriNet.build(
            places=["p", "q", "r"],
            transitions={"tau_skip": None, "tB": "B"},
            arcs=[("p", "tau_skip"), ("tau_skip", "q"), ("q", "tB"), ("tB", "r")],
            initial={"p": 1},
            final={"r": 1},
        )
        pa = PrefixAlignment.empty(net.initial_marking)
        assert extend_model_semantics(net, pa, "B", 0) is None

    def test_extension_keeps_cost_with_default_costs(self, seq_abc):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        for index, activity in enumerate(["A", "B", "C"]):
            extended = extend_model_semantics(seq_abc, pa, activity, index)
            assert extended.fitness_cost == pa.fitness_cost
            pa = extended

    def test_event_ref_goes_beside_the_shared_step(self, seq_abc):
        start = PrefixAlignment.empty(seq_abc.initial_marking)
        first = extend_model_semantics(seq_abc, start, "A", 7)
        second = extend_model_semantics(seq_abc, start, "A", 8)
        assert first.states[0] is second.states[0]
        assert first.states[0].event_ref is None
        assert (first.refs, second.refs) == ((7,), (8,))
        assert first != second
        assert extend_model_semantics(seq_abc, first, "B", 9).log_projection() == (("A", 7), ("B", 9))


class TestShortestPath:
    def test_exactly_replayable(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "B"])
        assert pa.fitness_cost == 0
        assert [s.kind for s in pa.states] == [MoveKind.SYNCHRONOUS] * 2

    def test_missing_prefix_tie_break(self, seq_abc):
        # frozen oracle value: brute force min over <B> is 1; the preferred
        # shape fires the model move on A and syncs B
        assert brute_force_min_cost(seq_abc, seq_abc.initial_marking, ["B"]) == 1.0
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["B"])
        assert pa.fitness_cost == 1.0
        assert [(s.kind, s.transition) for s in pa.states] == [
            (MoveKind.MODEL, "A"),
            (MoveKind.SYNCHRONOUS, "B"),
        ]

    def test_unknown_label_logs(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["X"])
        assert pa.fitness_cost == 1.0
        assert len(pa.states) == 1
        assert pa.states[0].kind is MoveKind.LOG

    def test_empty_trace_rejected(self, seq_abc):
        with pytest.raises(ValueError):
            shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, [])

    def test_budget_exceeded(self, branching_net):
        with pytest.raises(SearchBudgetExceeded):
            shortest_path_prefix_alignment(
                branching_net, branching_net.initial_marking, ["X", "Y", "Z"], budget=1
            )

    def test_event_refs_attached_to_consuming_moves(self, seq_abc):
        pa = shortest_path_prefix_alignment(
            seq_abc, seq_abc.initial_marking, [("B", 17)]
        )
        consuming = [s for s in pa.states if consumes_event(s)]
        assert [s.event_ref for s in consuming] == [17]
        model_moves = [s for s in pa.states if not consumes_event(s)]
        assert all(s.event_ref is None for s in model_moves)

    def test_silent_moves_are_free_and_preferred(self):
        net = PetriNet.build(
            places=["p", "q", "r"],
            transitions={"tau_skip": None, "tB": "B"},
            arcs=[("p", "tau_skip"), ("tau_skip", "q"), ("q", "tB"), ("tB", "r")],
            initial={"p": 1},
            final={"r": 1},
        )
        pa = shortest_path_prefix_alignment(net, net.initial_marking, ["B"])
        assert pa.fitness_cost == 0
        assert [s.kind for s in pa.states] == [
            MoveKind.SILENT_MODEL,
            MoveKind.SYNCHRONOUS,
        ]

    def test_custom_cost_model_changes_optimum(self, seq_abc):
        costs = CostModel(log_cost=1.0, model_cost=5.0)
        pa = shortest_path_prefix_alignment(
            seq_abc, seq_abc.initial_marking, ["B"], costs
        )
        # model A + sync B would cost 5; logging B costs 1
        assert pa.fitness_cost == 1.0
        assert [s.kind for s in pa.states] == [MoveKind.LOG]


class TestAlignmentAccessors:
    def test_fitness_cost_empty(self, seq_abc):
        assert PrefixAlignment.empty(seq_abc.initial_marking).fitness_cost == 0

    def test_fitness_cost_additivity(self, seq_abc):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        marking = seq_abc.initial_marking
        for cost, activity in zip([0.0, 1.0, 0.0], ["A", "X", "B"]):
            pa = pa.append(log_step(activity, cost, marking))
        assert pa.fitness_cost == 1.0

    def test_fitness_cost_includes_summary(self, seq_abc):
        summary = PrefixAlignment(Marking.of({"q1": 1}), (), 2.0, 0)
        pa = summary.append(
            log_step("X", 1.0, Marking.of({"q1": 1}))
        )
        assert pa.fitness_cost == 3.0

    def test_current_marking(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "B"])
        assert pa.current_marking == Marking.of({"q2": 1})
        empty = PrefixAlignment.empty(seq_abc.initial_marking)
        assert empty.current_marking == Marking.of({"s": 1})

    def test_log_move_leaves_marking_unchanged(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "X"])
        assert pa.states[-1].kind is MoveKind.LOG
        assert pa.states[-1].marking_after == pa.states[-2].marking_after


FRACTIONAL_COSTS = CostModel(sync_cost=0.05, log_cost=0.1, model_cost=0.3, silent_model_cost=0.01)

_OPERATIONS = st.one_of(
    st.tuples(st.just("append"), st.sampled_from(["A", "B", "C", "D", "Z"])),
    st.tuples(st.just("summary"), st.floats(min_value=0.0, max_value=10.0)),
    st.tuples(st.just("truncate"), st.integers(min_value=1, max_value=4)),
    st.tuples(st.just("search"), st.sampled_from(["A", "B", "C", "D", "Z"])),
)


def _left_to_right(costs) -> float:
    # the order in which builtin sum() adds floats up to Python 3.11
    total = 0
    for cost in costs:
        total += cost
    return total


class TestRunningCost:
    @given(seed=st.integers(min_value=0, max_value=50), operations=st.lists(_OPERATIONS, max_size=25))
    def test_carried_sum_is_bit_exact(self, seed, operations):
        net = random_net(random.Random(seed))
        cm = FRACTIONAL_COSTS
        pa = PrefixAlignment.empty(net.initial_marking)
        for op, arg in operations:
            if op == "append":
                extended = extend_model_semantics(net, pa, arg, None, cm)
                pa = extended or pa.append(log_step(arg, cm.log_cost, pa.current_marking))
            elif op == "summary":
                pa = PrefixAlignment(pa.base_marking, pa.states, arg, pa.moves_cost)
            elif op == "truncate":
                pa = truncate_states(pa, arg)
            else:  # recompute as the engine does: from the base marking, keep the summary
                trace = pa.log_projection() + ((arg, None),)
                fresh = shortest_path_prefix_alignment(net, pa.base_marking, trace, cm)
                pa = PrefixAlignment(fresh.base_marking, fresh.states, pa.summary, fresh.moves_cost)
            carried = pa.summary if pa.summary is not None else 0.0
            assert pa.fitness_cost == carried + _left_to_right(s.move_cost for s in pa.states)


def _pick_activity(net: PetriNet, pa: PrefixAlignment, enabled_first: bool, pick: int) -> str:
    """A label of a transition enabled after ``pa`` when asked and there is one, else any label or "Z"."""
    if enabled_first:
        enabled = [net.labels[t] for t in net.successors(pa.current_marking) if t in net.labels]
        if enabled:
            return enabled[pick % len(enabled)]
    labels = sorted(set(net.labels.values()) - {None}) + ["Z"]
    return labels[pick % len(labels)]


class TestTruncatingExtension:
    """Under a state limit the extension builds the alignment truncate_states would give."""

    @given(
        net_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=50)),  # None: cycle10
        kappa=st.one_of(st.none(), st.floats(min_value=0.0, max_value=10.0)),
        events=st.lists(st.tuples(st.booleans(), st.integers(0, 30), st.booleans()), max_size=20),
        w=st.integers(min_value=1, max_value=5),
        fractional=st.booleans(),
    )
    def test_equals_extension_then_truncation(self, net_seed, kappa, events, w, fractional):
        net = cyclic_sequence_net(10) if net_seed is None else random_net(random.Random(net_seed))
        cm = FRACTIONAL_COSTS if fractional else CostModel()
        # a new case, or a case resumed from its summary-only R_C entry
        pa = (
            PrefixAlignment.empty(net.initial_marking)
            if kappa is None
            else PrefixAlignment(net.initial_marking, (), kappa, 0, ())
        )
        for ref, (enabled_first, pick, search_on_miss) in enumerate(events):
            activity = _pick_activity(net, pa, enabled_first, pick)
            extended = extend_model_semantics(net, pa, activity, ref, cm, w=w)
            two_step = extend_model_semantics(net, pa, activity, ref, cm)
            if two_step is None:
                assert extended is None
                if search_on_miss:  # as the engine does, so forgotten states include model moves
                    fresh = shortest_path_prefix_alignment(
                        net, pa.base_marking, pa.log_activities() + [activity], cm
                    )
                    grown = PrefixAlignment(
                        fresh.base_marking, fresh.states, pa.summary, fresh.moves_cost, pa.refs + (ref,)
                    )
                else:
                    grown = pa.append(log_step(activity, cm.log_cost, pa.current_marking, ref))
                pa = truncate_states(grown, w)
                continue
            expected = truncate_states(two_step, w)
            assert extended == expected
            assert extended.refs == expected.refs
            assert repr(extended.summary) == repr(expected.summary)
            assert repr(extended.moves_cost) == repr(expected.moves_cost)
            assert extended.state_count <= max(w, 2)
            pa = extended

    def test_long_conforming_case_keeps_its_last_refs(self):
        net = cyclic_sequence_net(10)
        pa = PrefixAlignment.empty(net.initial_marking)
        for ref in range(25):
            pa = extend_model_semantics(net, pa, f"A{ref % 10}", ref, w=3)
            assert pa.state_count <= 3
        assert pa.log_projection() == (("A3", 23), ("A4", 24))
        assert pa.summary == 0.0

    @pytest.mark.parametrize(
        "w, message",
        [
            (2.5, "limit w must be an int, not 2.5"),
            (True, "limit w must be an int, not True"),
            ("2", "limit w must be an int, not '2'"),
            (0, "requires a state limit w >= 1"),
            (-1, "requires a state limit w >= 1"),
        ],
    )
    @pytest.mark.parametrize("activity", ["A", "C"], ids=["hit", "miss"])
    def test_rejects_a_limit_that_is_not_a_positive_int(self, seq_abc, w, message, activity):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        with pytest.raises(ValueError, match=message):
            extend_model_semantics(seq_abc, pa, activity, 0, w=w)


class TestSearchProperties:
    def test_matches_brute_force_on_random_nets(self):
        for seed in range(40):
            rng = random.Random(seed)
            net = random_net(rng)
            trace = random_trace(net, rng)
            expected = brute_force_min_cost(net, net.initial_marking, trace)
            pa = shortest_path_prefix_alignment(net, net.initial_marking, trace)
            assert pa.fitness_cost == expected, (seed, trace)

    def test_projection_soundness(self):
        for seed in range(30):
            rng = random.Random(seed + 1000)
            net = random_net(rng)
            trace = random_trace(net, rng)
            pa = shortest_path_prefix_alignment(
                net, net.initial_marking, [(a, i) for i, a in enumerate(trace)]
            )
            log_side = [a for a, _ in pa.log_projection()]
            assert log_side == trace
            marking = net.initial_marking
            for state in pa.states:
                if state.transition is not None:
                    marking = net.fire(marking, state.transition)
                assert state.marking_after == marking

    def test_cost_monotone_in_trace_prefix(self):
        for seed in range(20):
            rng = random.Random(seed + 2000)
            net = random_net(rng)
            trace = random_trace(net, rng)
            previous = 0.0
            for end in range(1, len(trace) + 1):
                cost = shortest_path_prefix_alignment(
                    net, net.initial_marking, trace[:end]
                ).fitness_cost
                assert cost >= previous
                previous = cost

    def test_deterministic(self):
        for seed in range(15):
            rng = random.Random(seed + 3000)
            net = random_net(rng)
            trace = random_trace(net, rng)
            first = shortest_path_prefix_alignment(net, net.initial_marking, trace)
            second = shortest_path_prefix_alignment(net, net.initial_marking, trace)
            assert first == second


class TestSearchBuildsOnlyTheResult:
    """The search builds one AlignmentState per distinct step of the returned alignment.

    The nets are fresh, so their step tables start empty, and a step
    value that recurs in the result is the table's one object.
    """

    @staticmethod
    def _search_counting_states(monkeypatch, net, trace):
        built = 0
        new = AlignmentState.__new__

        def counting_new(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(AlignmentState, "__new__", counting_new)
        result = shortest_path_prefix_alignment(net, net.initial_marking, trace)
        return result, built

    def test_noisy_cycle10_trace(self, monkeypatch):
        net = cyclic_sequence_net(10)
        trace = [f"A{i % 10}" for i in range(30)]
        trace[4] = "X"  # alien
        del trace[12]  # skipped
        trace.insert(20, trace[19])  # duplicated
        result, built = self._search_counting_states(monkeypatch, net, trace)
        assert result.fitness_cost > 0
        assert built == len(set(result.states))

    def test_random_net_with_silent_transitions(self, monkeypatch):
        rng = random.Random(8)
        net = random_net(rng)
        trace = random_trace(net, rng, max_len=8)
        result, built = self._search_counting_states(monkeypatch, net, trace)
        assert {s.kind for s in result.states} == set(MoveKind)
        assert built == len(set(result.states))


_TABLE_STREAM = StreamSpec(cases=40, open_cases=8, base_length=12, noise_probability=0.5)


def _replay_reprs(net, config: PolicyConfig, cap_check: int | None = None):
    """The engine, its outcome reprs and its stored alignments' reprs after one replay."""
    engine = ConformanceEngine(net, config)
    outcomes = []
    for e in replay(generate_log(_TABLE_STREAM, seed=5)):
        outcomes.append(repr(engine.process(e.case_id, e.activity, e.arrival_index)))
        if cap_check is not None:
            assert len(net._steps) <= cap_check
    return engine, outcomes, [repr(r.prefix_alignment) for r in engine.store.values()]


def _stored_steps(engine: ConformanceEngine) -> list[AlignmentState]:
    return [s for r in engine.store.values() for s in r.prefix_alignment.states]


class TestStepTable:
    """Steps with no event ref are the net's: one object per value, up to the cap."""

    @pytest.mark.parametrize(
        "first, second",
        [
            (CostModel(log_cost=1.0), CostModel(log_cost=1)),
            (CostModel(sync_cost=0.0), CostModel(sync_cost=-0.0)),
        ],
        ids=["log-cost-1.0-then-1", "sync-cost-0.0-then-minus-0.0"],
    )
    def test_equal_costs_of_another_type_or_sign_are_not_shared(self, first, second):
        # a step prints its cost, so one stored at one cost must not serve an equal
        # other one; the outcomes' costs are float sums either way, the steps' reprs are not
        shared = cyclic_sequence_net(10)
        for cost_model in (first, second):
            config = PolicyConfig(Policy.BASELINE, cost_model=cost_model)
            _, outcomes, alignments = _replay_reprs(shared, config)
            _, fresh_outcomes, fresh_alignments = _replay_reprs(cyclic_sequence_net(10), config)
            assert outcomes == fresh_outcomes
            assert alignments == fresh_alignments

    def test_table_stays_within_the_cap(self, monkeypatch):
        config = PolicyConfig(Policy.BOUNDED_STATES, w=3, cost_model=CostModel(0.05, 0.1, 0.3, 0.01))
        uncapped, uncapped_outcomes, uncapped_alignments = _replay_reprs(cyclic_sequence_net(10), config)
        monkeypatch.setattr(petri, "STEP_TABLE_CAP", 8)
        net = cyclic_sequence_net(10)
        capped, capped_outcomes, capped_alignments = _replay_reprs(net, config, cap_check=8)
        assert capped_outcomes == uncapped_outcomes
        assert capped_alignments == uncapped_alignments
        # the table is full, and past the cap equal steps are built afresh
        assert len(net._steps) == 8
        steps = _stored_steps(capped)
        assert len(set(steps)) < len({id(s) for s in steps})
        assert len(set(_stored_steps(uncapped))) > 8

    def test_baseline_replay_stores_one_object_per_step_value(self):
        engine, _, _ = _replay_reprs(cyclic_sequence_net(10), PolicyConfig(Policy.BASELINE))
        steps = _stored_steps(engine)
        assert engine.search_count > 0
        assert len({id(s) for s in steps}) <= len(set(steps)) < len(steps)

    def test_truncation_keeps_the_refs_of_the_kept_events(self):
        engine = ConformanceEngine(cyclic_sequence_net(10), PolicyConfig(Policy.BOUNDED_STATES, w=3))
        arrivals: dict[str, list[int]] = {}
        for e in replay(generate_log(_TABLE_STREAM, seed=5)):
            engine.process(e.case_id, e.activity, e.arrival_index)
            arrivals.setdefault(e.case_id, []).append(e.arrival_index)
        truncated = [r for r in engine.store.values() if r.prefix_alignment.summary is not None]
        assert truncated
        for record in truncated:
            pa = record.prefix_alignment
            kept = len(pa.log_activities())
            assert pa.refs == tuple(arrivals[record.case_id][len(arrivals[record.case_id]) - kept:])


# Cost models under which a bound prunes on these nets: the fractional ones
# round differently along different paths, so a bound equal to the optimum
# is missed by an ulp unless the comparison allows for rounding, and the
# ones with sync_cost > 0 order entries by g + h_unit x remaining events.
PRUNED_COST_MODELS = {
    "default": CostModel(),
    "unit-silent": CostModel(0.0, 1.0, 1.0, 1.0),
    "cheap-log": CostModel(0.0, 0.1, 0.3, 0.01),
    "cheap-model": CostModel(0.0, 0.3, 0.1, 0.1),
    "fractional": CostModel(0.05, 0.1, 0.3, 0.01),
    "sync-half": CostModel(0.5, 1.0, 1.0, 0.0),
}
ORACLE_SEEDS = range(200)


def _search_counting_expansions(monkeypatch, net, trace, cost_model, **bound):
    """The search's result and its expansions (one ``enabled_transitions`` call each)."""
    calls = 0
    enabled = PetriNet.enabled_transitions

    def counting(self, marking):
        nonlocal calls
        calls += 1
        return enabled(self, marking)

    with monkeypatch.context() as patch:
        patch.setattr(PetriNet, "enabled_transitions", counting)
        result = shortest_path_prefix_alignment(net, net.initial_marking, trace, cost_model, **bound)
    return result, calls


class TestBoundedSearch:
    """A bound at or above the optimum prunes entries and changes no result."""

    @pytest.mark.parametrize("cost_name", sorted(PRUNED_COST_MODELS))
    def test_pruned_search_returns_the_unpruned_alignment(self, cost_name, monkeypatch):
        # every prefix of every trace is searched, as the engine searches
        # after each event, under its bound (the previous optimum plus a log
        # move) and under the optimum itself
        cm = PRUNED_COST_MODELS[cost_name]
        unpruned_total = pruned_total = 0
        for seed in ORACLE_SEEDS:
            rng = random.Random(seed)
            net = random_net(rng)
            trace = [(activity, i) for i, activity in enumerate(random_trace(net, rng))]
            previous_cost = 0.0
            for end in range(1, len(trace) + 1):
                expected, expansions = _search_counting_expansions(monkeypatch, net, trace[:end], cm)
                for bound in (previous_cost + cm.log_cost, expected.fitness_cost):
                    pruned, pruned_expansions = _search_counting_expansions(
                        monkeypatch, net, trace[:end], cm, upper_bound=bound
                    )
                    assert repr((pruned.base_marking, pruned.states)) == repr(
                        (expected.base_marking, expected.states)
                    ), (seed, end, bound)
                    assert pruned_expansions <= expansions, (seed, end, bound)
                    unpruned_total += expansions
                    pruned_total += pruned_expansions
                previous_cost = expected.fitness_cost
        assert pruned_total < unpruned_total

    def test_bound_equal_to_a_rounded_optimum(self, seq_abc):
        # ten log moves of 0.1 fold to 0.9999999999999999, while the forced
        # log cost of the nine events left after the first is 0.9, and
        # 0.1 + 0.9 rounds to 1.0: without a slack the path to the goal is cut
        cm = CostModel(log_cost=0.1)
        trace = ["Z"] * 10
        expected = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, trace, cm)
        assert expected.fitness_cost == 0.9999999999999999
        bounded = shortest_path_prefix_alignment(
            seq_abc, seq_abc.initial_marking, trace, cm, upper_bound=expected.fitness_cost
        )
        assert bounded == expected

    def test_bound_below_the_optimum_is_not_a_budget_failure(self, seq_abc):
        optimum = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "C"]).fitness_cost
        assert optimum == 1.0
        with pytest.raises(BoundBelowOptimum, match="upper bound 0.5") as raised:
            shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "C"], upper_bound=0.5)
        assert raised.value.bound == 0.5
        assert not isinstance(raised.value, SearchBudgetExceeded)


def _long_cycle10_trace(rotation: int, length: int = 400) -> list[str]:
    """A conforming cycle10 trace with one edit at 1/4, 1/2 and 3/4 of its length.

    The edits are the long-traces benchmark workload's: the kinds alien,
    skip, duplicate and swap taken in turn from ``rotation``, applied from
    the last position back.
    """
    kinds = ("alien", "skip", "duplicate", "swap")
    trace = [f"A{i % 10}" for i in range(length)]
    for j, fraction in reversed(list(enumerate((0.25, 0.5, 0.75)))):
        position = round(length * fraction)
        kind = kinds[(rotation + j) % len(kinds)]
        if kind == "alien":
            trace.insert(position, "X")
        elif kind == "skip":
            del trace[position]
        elif kind == "duplicate":
            trace.insert(position, trace[position])
        else:
            trace[position], trace[position + 1] = trace[position + 1], trace[position]
    return trace


def _counting_expansions(patch) -> list[int]:
    """Count ``enabled_transitions`` calls, one per search expansion, in the returned one-item list."""
    calls = [0]
    enabled = PetriNet.enabled_transitions

    def counting(self, marking):
        calls[0] += 1
        return enabled(self, marking)

    patch.setattr(PetriNet, "enabled_transitions", counting)
    return calls


# sha256 of the expansion counts of every search in
# TestBoundedSearch::test_pruned_search_returns_the_unpruned_alignment, one
# line per search, in its order: the unpruned one, then one per bound
EXPANSION_DIGESTS = {  # 2,133 searches per cost model
    "cheap-log": "3d9a94f99cca66ec287c4ebc7926f2eed93d0492cd3809433a4b4d502d0ad6ec",  # 7,326 expansions
    "cheap-model": "a00b7a3676be755e4d92d62b1065113fb96ab7cd68cfa3595ba0f8660a8d1ca0",  # 12,255
    "default": "f7cd830a533e63d59d7eafaf7db2a9e7b1eadee98c2917a429ca17c4be3e1157",  # 9,265
    "fractional": "f3cce114dab715120aa4ed0e65f31a88fedd3fcbd187f7b2997da9d8b051ca3d",  # 7,063
    "sync-half": "c0f9a2ab5790455da980d8f83b63c984b7cb2317acd5db1ead8d76e067cf5db4",  # 8,303
    "unit-silent": "e516106441fce32cef47a6f13dc14d9f58839889a25a2c5b69527b96ad24e11c",  # 9,664
}

# expansions of each search a baseline engine makes on _long_cycle10_trace(rotation)
LONG_TRACE_SEARCH_EXPANSIONS = {
    0: [101, 205, 709],
    1: [102, 404, 906, 1407, 1510],
    2: [103, 406, 809, 811, 909],
    3: [102, 304, 306, 404, 713],
}


class TestSearchExpandsTheSameNodes:
    """Pins the work of the search, not only its result: its expansion count per search.

    The golden digests pin results, so a search that expanded more nodes
    to return the same alignment would pass them.
    """

    @pytest.mark.parametrize("cost_name", sorted(PRUNED_COST_MODELS))
    def test_oracle_expansion_counts(self, cost_name, monkeypatch):
        cm = PRUNED_COST_MODELS[cost_name]
        lines = []
        for seed in ORACLE_SEEDS:
            rng = random.Random(seed)
            net = random_net(rng)
            trace = [(activity, i) for i, activity in enumerate(random_trace(net, rng))]
            previous_cost = 0.0
            for end in range(1, len(trace) + 1):
                expected, expansions = _search_counting_expansions(monkeypatch, net, trace[:end], cm)
                lines.append(f"{expansions}\n")
                for bound in (previous_cost + cm.log_cost, expected.fitness_cost):
                    _, expansions = _search_counting_expansions(
                        monkeypatch, net, trace[:end], cm, upper_bound=bound
                    )
                    lines.append(f"{expansions}\n")
                previous_cost = expected.fitness_cost
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        assert digest == EXPANSION_DIGESTS[cost_name], (cost_name, len(lines))

    @pytest.mark.parametrize("rotation", sorted(LONG_TRACE_SEARCH_EXPANSIONS))
    def test_long_cycle10_trace_search_expansions(self, rotation, monkeypatch):
        engine = ConformanceEngine(cyclic_sequence_net(10))
        calls = _counting_expansions(monkeypatch)
        counts = []
        for i, activity in enumerate(_long_cycle10_trace(rotation)):
            calls[0] = 0
            outcome = engine.process("c", activity, i)
            if outcome.method is Method.SHORTEST_PATH:
                counts.append(calls[0])
            else:
                assert calls[0] == 0
        assert counts == LONG_TRACE_SEARCH_EXPANSIONS[rotation]


def _engine_state(engine: ConformanceEngine) -> tuple:
    """Everything a processed event changes in an engine, as comparable values."""
    return (
        repr(dict(engine.store)),
        repr(dict(engine.repo)),
        repr(engine._buckets),
        engine.stored_state_count,
        engine.events_processed,
        engine.search_count,
        engine.extension_count,
    )


class TestBudgetBoundary:
    """A search of E expansions passes with budget E and fails with E - 1."""

    TRACE = [f"A{i % 10}" for i in range(25)]
    del TRACE[13]  # a skipped event: the engine's one search

    def test_public_search(self, monkeypatch):
        net = cyclic_sequence_net(10)
        expected, made = _search_counting_expansions(monkeypatch, net, self.TRACE, DEFAULT_COST_MODEL)
        assert made > 1
        assert shortest_path_prefix_alignment(net, net.initial_marking, self.TRACE, budget=made) == expected
        with pytest.raises(SearchBudgetExceeded) as raised:
            shortest_path_prefix_alignment(net, net.initial_marking, self.TRACE, budget=made - 1)
        assert raised.value.budget == made - 1

    def test_engine_process(self, monkeypatch):
        searched_at = 13
        with monkeypatch.context() as patch:
            calls = _counting_expansions(patch)
            engine = ConformanceEngine(cyclic_sequence_net(10))
            outcomes = []
            for i, activity in enumerate(self.TRACE):
                if i == searched_at:
                    calls[0] = 0
                outcomes.append(engine.process("c", activity, i))
                if i == searched_at:
                    made = calls[0]
        assert [i for i, o in enumerate(outcomes) if o.method is Method.SHORTEST_PATH] == [searched_at]
        enough = ConformanceEngine(cyclic_sequence_net(10), search_budget=made)
        assert [enough.process("c", a, i) for i, a in enumerate(self.TRACE)] == outcomes
        short = ConformanceEngine(cyclic_sequence_net(10), search_budget=made - 1)
        for i, activity in enumerate(self.TRACE[:searched_at]):
            short.process("c", activity, i)
        before = _engine_state(short)
        with pytest.raises(SearchBudgetExceeded) as raised:
            short.process("c", self.TRACE[searched_at], searched_at)
        assert (raised.value.budget, raised.value.case_id) == (made - 1, "c")
        assert _engine_state(short) == before
