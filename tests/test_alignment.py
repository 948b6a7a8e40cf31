from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from streamcc import (
    CostModel,
    Marking,
    Move,
    MoveKind,
    PetriNet,
    PrefixAlignment,
    SearchBudgetExceeded,
    SummaryState,
    extend_model_semantics,
    shortest_path_prefix_alignment,
    truncate_states,
)

from oracles import brute_force_min_cost, random_net, random_trace


class TestMoveInvariants:
    def test_sync_requires_activity_and_transition(self):
        move = Move.sync("A", "t1", 0)
        assert move.activity == "A" and move.transition == "t1"
        with pytest.raises(ValueError):
            Move(MoveKind.SYNCHRONOUS, activity="A")

    def test_log_move_has_no_transition(self):
        with pytest.raises(ValueError):
            Move(MoveKind.LOG, activity="A", transition="t1")

    def test_model_move_has_no_activity(self):
        with pytest.raises(ValueError):
            Move(MoveKind.MODEL, activity="A", transition="t1")

    def test_cost_model_rejects_negative(self):
        with pytest.raises(ValueError):
            CostModel(log_cost=-1)

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
        assert extended.states[0].move.kind is MoveKind.SYNCHRONOUS
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
        assert [s.move.transition for s in pa.states] == ["t1", "t2"]
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
        assert pa.states[0].move.transition == "t1"

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


class TestShortestPath:
    def test_exactly_replayable(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "B"])
        assert pa.fitness_cost == 0
        assert [s.move.kind for s in pa.states] == [MoveKind.SYNCHRONOUS] * 2

    def test_missing_prefix_tie_break(self, seq_abc):
        # frozen oracle value: brute force min over <B> is 1; the preferred
        # shape fires the model move on A and syncs B
        assert brute_force_min_cost(seq_abc, seq_abc.initial_marking, ["B"]) == 1.0
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["B"])
        assert pa.fitness_cost == 1.0
        assert [(s.move.kind, s.move.transition) for s in pa.states] == [
            (MoveKind.MODEL, "A"),
            (MoveKind.SYNCHRONOUS, "B"),
        ]

    def test_unknown_label_logs(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["X"])
        assert pa.fitness_cost == 1.0
        assert len(pa.states) == 1
        assert pa.states[0].move.kind is MoveKind.LOG

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
        consuming = [s for s in pa.states if s.move.consumes_event()]
        assert [s.move.event_ref for s in consuming] == [17]
        model_moves = [s for s in pa.states if not s.move.consumes_event()]
        assert all(s.move.event_ref is None for s in model_moves)

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
        assert [s.move.kind for s in pa.states] == [
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
        assert [s.move.kind for s in pa.states] == [MoveKind.LOG]


class TestAlignmentAccessors:
    def test_fitness_cost_empty(self, seq_abc):
        assert PrefixAlignment.empty(seq_abc.initial_marking).fitness_cost == 0

    def test_fitness_cost_additivity(self, seq_abc):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        marking = seq_abc.initial_marking
        for cost, activity in zip([0.0, 1.0, 0.0], ["A", "X", "B"]):
            move = Move.log(activity)
            pa = pa.append(move, cost, marking)
        assert pa.fitness_cost == 1.0

    def test_fitness_cost_includes_summary(self, seq_abc):
        summary = SummaryState(kappa_o=2.0, carry_marking=Marking.of({"q1": 1}))
        pa = PrefixAlignment.from_summary(summary).append(
            Move.log("X"), 1.0, Marking.of({"q1": 1})
        )
        assert pa.fitness_cost == 3.0

    def test_current_marking(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "B"])
        assert pa.current_marking == Marking.of({"q2": 1})
        empty = PrefixAlignment.empty(seq_abc.initial_marking)
        assert empty.current_marking == Marking.of({"s": 1})

    def test_log_move_leaves_marking_unchanged(self, seq_abc):
        pa = shortest_path_prefix_alignment(seq_abc, seq_abc.initial_marking, ["A", "X"])
        assert pa.states[-1].move.kind is MoveKind.LOG
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
                pa = extended or pa.append(Move.log(arg), cm.log_cost, pa.current_marking)
            elif op == "summary":
                pa = pa.with_summary(SummaryState(kappa_o=arg, carry_marking=pa.base_marking))
            elif op == "truncate":
                pa = truncate_states(pa, arg)
            else:  # recompute as the engine does: from the base marking, keep the summary
                trace = pa.log_projection() + ((arg, None),)
                fresh = shortest_path_prefix_alignment(net, pa.base_marking, trace, cm)
                pa = fresh.with_summary(pa.summary)
            carried = pa.summary.kappa_o if pa.summary is not None else 0.0
            assert pa.fitness_cost == carried + _left_to_right(s.move_cost for s in pa.states)


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
                if state.move.transition is not None:
                    marking = net.fire(marking, state.move.transition)
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
