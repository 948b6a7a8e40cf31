from __future__ import annotations

import random
from dataclasses import replace

import pytest

from streamcc import (
    ConformanceEngine,
    CostModel,
    Policy,
    PolicyConfig,
    PrefixAlignment,
    SearchBudgetExceeded,
    StreamSpec,
    cyclic_sequence_net,
    generate_log,
    replay,
)
from streamcc.alignment import MoveKind
from streamcc import policies
from streamcc.petri import Marking, PetriNet
from streamcc.policies import CaseRecord, CaseStore, Method, truncate_states

from oracles import (
    brute_force_min_cost,
    checked_replay,
    log_step,
    random_net,
    random_trace,
    replay_outcomes,
    select_forget_victim,
    stored_state_count,
    sync_step,
)


def run_stream(engine, pairs):
    """Process (case, activity) pairs; returns the outcomes."""
    return [engine.process(case, activity, i) for i, (case, activity) in enumerate(pairs)]


def make_pa(net, activities, start=None):
    """Alignment of purely logged/synced states built through the engine's search."""
    from streamcc import shortest_path_prefix_alignment

    return shortest_path_prefix_alignment(net, start or net.initial_marking, activities)


class TestPolicyConfig:
    def test_bounded_states_requires_w(self):
        with pytest.raises(ValueError):
            PolicyConfig(Policy.BOUNDED_STATES)
        with pytest.raises(ValueError):
            PolicyConfig(Policy.BOUNDED_STATES, w=0)

    def test_bounded_cases_requires_n(self):
        with pytest.raises(ValueError):
            PolicyConfig(Policy.BOUNDED_CASES, n=0)

    def test_combined_requires_both(self):
        with pytest.raises(ValueError):
            PolicyConfig(Policy.COMBINED, w=3)

    def test_baseline_rejects_limits(self):
        with pytest.raises(ValueError):
            PolicyConfig(Policy.BASELINE, w=3)

    @pytest.mark.parametrize(
        "policy, limits, field",
        [
            (Policy.BOUNDED_STATES, {"w": 2.5}, "w"),
            (Policy.BOUNDED_STATES, {"w": True}, "w"),
            (Policy.BOUNDED_CASES, {"n": 1.0}, "n"),
            (Policy.COMBINED, {"w": 2, "n": True}, "n"),
        ],
        ids=["w-2.5", "w-True", "n-1.0", "combined-n-True"],
    )
    def test_limits_must_be_ints(self, policy, limits, field):
        with pytest.raises(ValueError, match=f"limit {field} must be an int"):
            PolicyConfig(policy, **limits)

    def test_labels(self):
        assert PolicyConfig(Policy.BASELINE).label == "baseline"
        assert PolicyConfig(Policy.COMBINED, w=5, n=100).label == "combined-w5-n100"


class TestBaseline:
    def test_fitting_trace_uses_model_semantics(self, seq_abc):
        engine = ConformanceEngine(seq_abc)
        outcomes = run_stream(engine, [("1", "A"), ("1", "B")])
        assert [o.effective_cost for o in outcomes] == [0, 0]
        assert all(o.method is Method.MODEL_SEMANTICS for o in outcomes)

    def test_fresh_case_starting_midway(self, seq_abc):
        # frozen oracle value: brute force min over <B> is 1
        assert brute_force_min_cost(seq_abc, seq_abc.initial_marking, ["B"]) == 1.0
        engine = ConformanceEngine(seq_abc)
        (outcome,) = run_stream(engine, [("1", "B")])
        assert outcome.effective_cost == 1.0
        assert outcome.method is Method.SHORTEST_PATH

    def test_alien_event_is_one_log_move(self, seq_abc):
        # frozen oracle value: brute force min over <A,X,B> is 1
        assert brute_force_min_cost(seq_abc, seq_abc.initial_marking, ["A", "X", "B"]) == 1.0
        engine = ConformanceEngine(seq_abc)
        outcomes = run_stream(engine, [("1", "A"), ("1", "X"), ("1", "B")])
        assert [o.effective_cost for o in outcomes] == [0, 1, 1]
        assert outcomes[1].method is Method.SHORTEST_PATH
        assert outcomes[2].method is Method.MODEL_SEMANTICS

    def test_process_goes_on_after_a_failed_event(self, seq_abc):
        engine = ConformanceEngine(seq_abc, search_budget=1)

        def snapshot():
            records = [(r.case_id, r.prefix_alignment) for r in engine.store.records()]
            return records, list(engine.repo.items()), engine.stored_state_count, engine.events_processed

        before = snapshot()
        with pytest.raises(SearchBudgetExceeded):
            engine.process("a", "B", 0)  # "B" skips "A": its search expands two markings
        assert snapshot() == before
        outcome = engine.process("b", "A", 1)
        assert (outcome.case_id, outcome.effective_cost) == ("b", 0.0)
        assert engine.stored_state_count == 1


class TestSearchBudget:
    @pytest.mark.parametrize(
        "budget, message",
        [
            (0, "at least 1 expansion, not 0"),
            (-5, "at least 1 expansion, not -5"),
            (2.5, "an int, not 2.5"),
            (True, "an int, not True"),
            ("10", "an int, not '10'"),
        ],
    )
    def test_rejects_a_budget_that_cannot_search(self, seq_abc, budget, message):
        with pytest.raises(ValueError, match=f"search budget must be {message}"):
            ConformanceEngine(seq_abc, search_budget=budget)

    def test_budget_of_one_expansion_is_accepted(self, seq_abc):
        engine = ConformanceEngine(seq_abc, search_budget=1)
        (outcome,) = run_stream(engine, [("1", "X")])  # pruned to the log move: one expansion
        assert (outcome.method, outcome.effective_cost) == (Method.SHORTEST_PATH, 1.0)


class TestTruncateStates:
    def test_under_limit_unchanged(self, seq_abc):
        pa = make_pa(seq_abc, ["A", "B", "C"])
        assert truncate_states(pa, 5) is pa

    def test_truncates_zero_cost_chain(self):
        net = cyclic_sequence_net(6)
        pa = make_pa(net, ["A0", "A1", "A2", "A3", "A4"])
        truncated = truncate_states(pa, 3)
        assert truncated.state_count == 3
        assert truncated.summary == 0.0
        # independent replay of the first three moves gives the carry marking
        marking = net.initial_marking
        for state in pa.states[:3]:
            marking = net.fire(marking, state.transition)
        assert truncated.base_marking == marking
        assert [s.activity for s in truncated.states] == ["A3", "A4"]

    def test_absorbs_prior_summary_cost(self, seq_abc):
        markings = [Marking.of({"q1": 1})] * 4
        pa = PrefixAlignment(Marking.of({"s": 1}), (), 1.0, 0)
        costs = [1.0, 0.0, 0.0, 0.0]
        for i, cost in enumerate(costs):
            pa = pa.append(log_step(f"X{i}", cost, markings[i]))
        truncated = truncate_states(pa, 3)
        assert truncated.state_count == 3
        assert truncated.summary == 2.0  # 1 carried + 1 from the dropped states
        assert truncated.base_marking == pa.states[1].marking_after
        assert len(truncated.states) == 2

    def test_w1_keeps_summary_plus_latest(self, seq_abc):
        pa = make_pa(seq_abc, ["A", "B", "C"])
        truncated = truncate_states(pa, 1)
        assert truncated.summary is not None
        assert len(truncated.states) == 1
        assert truncated.state_count == 2
        # idempotent once in summary+1 form
        assert truncate_states(truncated, 1) is truncated

    def test_rejects_nonpositive_limit(self, seq_abc):
        with pytest.raises(ValueError):
            truncate_states(make_pa(seq_abc, ["A"]), 0)

    @pytest.mark.parametrize(
        "w, message",
        [
            (2.5, "limit w must be an int, not 2.5"),
            (True, "limit w must be an int, not True"),
            (None, "limit w must be an int, not None"),
            (0, "requires a state limit w >= 1"),
        ],
    )
    @pytest.mark.parametrize("events", [["A"], ["A", "B", "C"]], ids=["under-limit", "over-limit"])
    def test_rejects_a_limit_that_is_not_a_positive_int(self, seq_abc, w, message, events):
        # 2.5 used to fail on slicing with a TypeError, and True to act as w=1
        with pytest.raises(ValueError, match=message):
            truncate_states(make_pa(seq_abc, events), w)

    def test_dropped_costs_fold_left_to_right(self):
        # the search and PrefixAlignment add costs left to right, giving
        # 0.9999999999999999 here; builtin sum() gives 1.0 from Python 3.12 on
        marking = Marking.of({"q1": 1})
        pa = PrefixAlignment.empty(marking)
        for i in range(11):
            pa = pa.append(log_step(f"X{i}", 0.1, marking))
        truncated = truncate_states(pa, 2)
        assert len(truncated.states) == 1
        assert truncated.summary == 0.9999999999999999

    def test_indices_renumbered(self):
        net = cyclic_sequence_net(6)
        truncated = truncate_states(make_pa(net, ["A0", "A1", "A2", "A3", "A4"]), 3)
        assert [s.activity for s in truncated.states] == ["A3", "A4"]


class TestBoundedStates:
    def test_fitting_long_trace_never_searches(self):
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=3))
        events = [("1", f"A{i}") for i in range(10)]
        outcomes = run_stream(engine, events)
        assert all(o.effective_cost == 0 for o in outcomes)
        assert all(o.method is Method.MODEL_SEMANTICS for o in outcomes)
        record = engine.store.get("1")
        assert record.prefix_alignment.state_count <= 3

    def test_w1_walkthrough(self, seq_abc):
        engine = ConformanceEngine(seq_abc, PolicyConfig(Policy.BOUNDED_STATES, w=1))
        first = engine.process("1", "A", 0)
        record = engine.store.get("1")
        assert first.effective_cost == 0
        assert record.prefix_alignment.state_count == 1  # no truncation yet
        second = engine.process("1", "X", 1)
        record = engine.store.get("1")
        assert second.effective_cost == 1.0
        assert second.method is Method.SHORTEST_PATH
        assert record.prefix_alignment.summary is not None
        assert len(record.prefix_alignment.states) == 1

    def test_search_resumes_from_carry_marking(self):
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=2))
        for i in range(5):
            engine.process("1", f"A{i}", i)
        record = engine.store.get("1")
        assert record.prefix_alignment.summary is not None
        assert record.prefix_alignment.base_marking == Marking.of({"s4": 1})
        # ZZ fails extension; the search resumes from the carried position over
        # the retained events only, so only one log move is charged
        outcome = engine.process("1", "ZZ", 5)
        assert outcome.effective_cost == 1.0
        pa = engine.store.get("1").prefix_alignment
        # post-search truncation summarizes the re-synced A4 and carries s5
        assert pa.summary == 0.0
        assert pa.base_marking == Marking.of({"s5": 1})
        assert [s.kind for s in pa.states] == [MoveKind.LOG]

    def test_large_w_equals_baseline(self):
        net = cyclic_sequence_net(10)
        log = generate_log(
            StreamSpec(cases=40, open_cases=8, noise_probability=0.5), seed=11
        )
        events = list(replay(log))
        base = ConformanceEngine(net)
        bounded = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=64))
        base_costs = [o.effective_cost for o in replay_outcomes(base, events)]
        bounded_costs = [o.effective_cost for o in replay_outcomes(bounded, events)]
        assert base_costs == bounded_costs

    def test_an_extended_event_builds_one_alignment(self, monkeypatch):
        from test_golden import CONFIGS, STREAM_SEED, STREAM_SPEC

        # every alignment is built through this one point
        built = []

        def counting_from_fields(fields):
            pa = tuple.__new__(PrefixAlignment, fields)
            built.append(pa)
            return pa

        monkeypatch.setattr(PrefixAlignment, "_from_fields", counting_from_fields)
        events = list(replay(generate_log(STREAM_SPEC, seed=STREAM_SEED)))
        # baseline, bounded-states-w2, bounded-cases-n5 and combined-w2-n5
        for config in CONFIGS:
            engine = ConformanceEngine(cyclic_sequence_net(10), config)
            extended = truncated = 0
            for event in events:
                before = len(built)
                outcome = engine.process(event.case_id, event.activity, event.arrival_index)
                if outcome.method is Method.MODEL_SEMANTICS:
                    pa = engine.store[event.case_id].prefix_alignment
                    own, *evicted = built[before:]
                    assert own is pa and all(not summary.states for summary in evicted), (
                        f"{config.label}: event {event.arrival_index} built {len(built) - before} alignments"
                    )
                    # besides the case's one alignment, an eviction may build the
                    # evicted case's summary-only R_C entry, and nothing else
                    assert len(evicted) <= 1
                    assert all(any(summary is entry for entry in engine.repo.values()) for summary in evicted)
                    extended += 1
                    truncated += pa.summary is not None and pa.state_count == 2
            assert extended == engine.extension_count > 500, config.label
            if config.w is not None:
                # most extended events forgot a state: the one alignment was built truncated
                assert truncated > extended // 2, config.label


class TestForgettingCriteria:
    def add(self, store, record):
        store[record.case_id] = record
        return record

    def monuple(self, net, case_id):
        pa = PrefixAlignment.empty(net.initial_marking).append(
            sync_step("A", "A", 0, 0.0, net.fire(net.initial_marking, "A"))
        )
        return CaseRecord(case_id, pa)

    def with_residual(self, net, case_id, kappa, extra_cost=0.0):
        pa = PrefixAlignment(net.initial_marking, (), kappa, 0)
        pa = pa.append(log_step("X", extra_cost, net.initial_marking))
        return CaseRecord(case_id, pa)

    def conformant(self, net, case_id, events=2):
        pa = PrefixAlignment.empty(net.initial_marking)
        marking = net.initial_marking
        for i, t in enumerate(["A", "B"][:events]):
            marking = net.fire(marking, t)
            pa = pa.append(sync_step(t, t, i, 0.0, marking))
        return CaseRecord(case_id, pa)

    def nonconformant(self, net, case_id, cost):
        pa = PrefixAlignment.empty(net.initial_marking)
        for i in range(int(cost)):
            pa = pa.append(log_step(f"X{i}", 1.0, net.initial_marking))
        return CaseRecord(case_id, pa)

    def test_monuple_beats_everything(self, seq_abc):
        store = CaseStore()
        self.add(store, self.nonconformant(seq_abc, "bad", 3))
        self.add(store, self.monuple(seq_abc, "mono"))
        assert select_forget_victim(store, {"bad": 0, "mono": 9}) == "mono"

    def test_monuple_scan_stops_at_first(self, seq_abc):
        store = CaseStore()
        self.add(store, self.monuple(seq_abc, "m1"))
        self.add(store, self.monuple(seq_abc, "m0"))
        # earlier in scan order wins even though m0 is older
        assert select_forget_victim(store, {"m1": 5, "m0": 1}) == "m1"

    def test_residual_over_conformant_over_costly(self, seq_abc):
        store = CaseStore()
        self.add(store, self.with_residual(seq_abc, "resid", kappa=2.0))
        self.add(store, self.conformant(seq_abc, "clean"))
        self.add(store, self.nonconformant(seq_abc, "costly", 3))
        assert select_forget_victim(store, {"resid": 0, "clean": 1, "costly": 2}) == "resid"

    def test_conformant_over_costly(self, seq_abc):
        store = CaseStore()
        self.add(store, self.nonconformant(seq_abc, "costly", 3))
        self.add(store, self.conformant(seq_abc, "clean"))
        assert select_forget_victim(store, {"costly": 0, "clean": 5}) == "clean"

    def test_lru_tie_break_within_class(self, seq_abc):
        store = CaseStore()
        self.add(store, self.conformant(seq_abc, "newer"))
        self.add(store, self.conformant(seq_abc, "older"))
        assert select_forget_victim(store, {"newer": 8, "older": 2}) == "older"

    def test_case_id_breaks_equal_recency(self, seq_abc):
        store = CaseStore()
        self.add(store, self.conformant(seq_abc, "zz"))
        self.add(store, self.conformant(seq_abc, "aa"))
        assert select_forget_victim(store, {"zz": 4, "aa": 4}) == "aa"

    def test_zero_residual_summary_is_not_condition_two(self, seq_abc):
        store = CaseStore()
        # summary with kappa 0 and non-zero retained cost: condition 4
        self.add(store, self.with_residual(seq_abc, "zero-res", kappa=0.0, extra_cost=1.0))
        self.add(store, self.conformant(seq_abc, "clean"))
        assert select_forget_victim(store, {"zero-res": 0, "clean": 9}) == "clean"

    def test_empty_store_rejected(self):
        with pytest.raises(ValueError):
            select_forget_victim(CaseStore(), {})

    def test_conditions_two_to_four_partition_everything(self, seq_abc):
        records = [
            self.with_residual(seq_abc, "a", kappa=2.0),
            self.with_residual(seq_abc, "b", kappa=0.0, extra_cost=1.0),
            self.conformant(seq_abc, "c"),
            self.nonconformant(seq_abc, "d", 1),
            self.monuple(seq_abc, "e"),
        ]
        for record in records:
            pa = record.prefix_alignment
            kappa = pa.carried_cost
            matches = [
                kappa > 0,
                pa.fitness_cost == 0,
                kappa == 0 and pa.fitness_cost > 0,
            ]
            assert sum(matches) == 1


class TestBoundedCases:
    def test_eviction_and_restore(self):
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_CASES, n=1))
        engine.process("c1", "A0", 0)
        engine.process("c2", "A0", 1)
        assert "c1" in engine.repo and "c1" not in engine.store
        assert len(engine.store) == 1
        outcome = engine.process("c1", "A1", 2)
        assert outcome.effective_cost == 0.0
        assert outcome.method is Method.MODEL_SEMANTICS
        assert "c1" in engine.store and "c1" not in engine.repo
        assert "c2" in engine.repo

    def test_conformant_eviction_keeps_zero_cost(self):
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_CASES, n=2))
        pairs = [("a", "A0"), ("a", "A1"), ("b", "A0"), ("c", "A0"), ("a", "A2"), ("a", "A3")]
        outcomes = run_stream(engine, pairs)
        assert all(o.effective_cost == 0 for o in outcomes if o.case_id == "a")

    def test_restored_case_carries_residual(self, seq_abc):
        engine = ConformanceEngine(seq_abc, PolicyConfig(Policy.BOUNDED_CASES, n=1))
        engine.process("bad", "X", 0)  # cost 1, marking stays [s]
        engine.process("other", "A", 1)  # evicts bad with kappa 1
        assert engine.repo.get("bad").summary == 1.0
        outcome = engine.process("bad", "A", 2)  # restored; A syncs from the carry marking
        assert outcome.effective_cost == 1.0
        assert outcome.residual_cost == 1.0

    def test_failed_first_event_admits_nothing(self, seq_abc):
        engine = ConformanceEngine(
            seq_abc, PolicyConfig(Policy.BOUNDED_CASES, n=1), search_budget=1
        )
        with pytest.raises(SearchBudgetExceeded):
            engine.process("a", "B", 0)  # skips "A": its search expands two markings
        outcome = engine.process("b", "A", 0)
        assert outcome.effective_cost == 0.0
        assert [r.case_id for r in engine.store.records()] == ["b"]
        assert len(engine.repo) == 0

    def test_failed_event_leaves_engine_unchanged(self, seq_abc):
        engine = ConformanceEngine(
            seq_abc, PolicyConfig(Policy.BOUNDED_CASES, n=1), search_budget=1
        )
        engine.process("a", "A", 0)
        engine.process("b", "A", 1)  # evicts a into the repository

        def snapshot():
            records = [(r.case_id, r.prefix_alignment) for r in engine.store.records()]
            return (
                records,
                # the forgetting index, each bucket in its order
                {rank: list(bucket) for rank, bucket in engine._buckets.items()},
                list(engine.repo.items()),
                engine.stored_state_count,
                engine._pick_victim(),
                engine.events_processed,
            )

        before = snapshot()
        # a new case, the stored case, and a case resumed from its summary;
        # each event's search expands two markings
        for case_id, activity in (("c", "B"), ("b", "C"), ("a", "C")):
            with pytest.raises(SearchBudgetExceeded):
                engine.process(case_id, activity, 2)
            assert snapshot() == before
        assert "a" in engine.repo

    def test_huge_n_equals_baseline(self):
        net = cyclic_sequence_net(10)
        log = generate_log(StreamSpec(cases=30, open_cases=10, noise_probability=0.4), seed=5)
        events = list(replay(log))
        base = [o.effective_cost for o in replay_outcomes(ConformanceEngine(net), events)]
        bounded = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_CASES, n=10**6))
        assert [o.effective_cost for o in replay_outcomes(bounded, events)] == base


class TestCombined:
    def test_degenerate_limits_match_components(self):
        net = cyclic_sequence_net(10)
        log = generate_log(StreamSpec(cases=25, open_cases=8, noise_probability=0.5), seed=9)
        events = list(replay(log))
        base = [o.effective_cost for o in replay_outcomes(ConformanceEngine(net), events)]
        w_only = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=4))
        n_only = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_CASES, n=6))
        combo_w = ConformanceEngine(net, PolicyConfig(Policy.COMBINED, w=4, n=10**6))
        combo_n = ConformanceEngine(net, PolicyConfig(Policy.COMBINED, w=64, n=6))
        combo_inf = ConformanceEngine(net, PolicyConfig(Policy.COMBINED, w=64, n=10**6))
        costs = {
            "w_only": [o.effective_cost for o in replay_outcomes(w_only, events)],
            "n_only": [o.effective_cost for o in replay_outcomes(n_only, events)],
            "combo_w": [o.effective_cost for o in replay_outcomes(combo_w, events)],
            "combo_n": [o.effective_cost for o in replay_outcomes(combo_n, events)],
            "combo_inf": [o.effective_cost for o in replay_outcomes(combo_inf, events)],
        }
        assert costs["combo_inf"] == base
        assert costs["combo_w"] == costs["w_only"]
        assert costs["combo_n"] == costs["n_only"]

    def test_memory_accounting_bound(self):
        net = cyclic_sequence_net(10)
        log = generate_log(StreamSpec(cases=50, open_cases=20, noise_probability=0.4), seed=4)
        engine = ConformanceEngine(net, PolicyConfig(Policy.COMBINED, w=3, n=5))
        checked_replay(engine, list(replay(log)))

    def test_long_fitting_trace_small_limits(self):
        net = cyclic_sequence_net(6)
        engine = ConformanceEngine(net, PolicyConfig(Policy.COMBINED, w=2, n=1))
        outcomes = run_stream(engine, [("1", f"A{i % 6}") for i in range(6)])
        assert all(o.effective_cost == 0 for o in outcomes)

    def test_residual_cost_reads_the_alignment_that_holds_the_case(self, seq_abc):
        engine = ConformanceEngine(seq_abc, PolicyConfig(Policy.COMBINED, w=1, n=1))
        outcomes = run_stream(engine, [("a", "X"), ("a", "A"), ("a", "Y")])
        # w=1 forgot X and then A, so the stored case has a summary
        assert engine.store.get("a").prefix_alignment.summary == 1.0
        assert engine.residual_cost("a") == outcomes[-1].residual_cost == 1.0
        # b's first event evicts a; R_C carries a's whole cost at eviction
        engine.process("b", "A", 3)
        assert "a" not in engine.store and "a" in engine.repo
        assert engine.residual_cost("a") == outcomes[-1].effective_cost == 2.0
        assert engine.residual_cost("b") == 0.0
        with pytest.raises(KeyError):
            engine.residual_cost("never-seen")


class TestAccessors:
    def test_effective_cost_examples(self, seq_abc):
        pa = PrefixAlignment.empty(seq_abc.initial_marking)
        pa = pa.append(log_step("X", 0.0, seq_abc.initial_marking))
        pa = pa.append(log_step("Y", 1.0, seq_abc.initial_marking))
        assert pa.fitness_cost == 1.0

        summary_only = PrefixAlignment(seq_abc.initial_marking, (), 2.0, 0)
        assert summary_only.fitness_cost == 2.0

        with_state = summary_only.append(log_step("X", 1.0, seq_abc.initial_marking))
        assert with_state.fitness_cost == 3.0

    def test_stored_state_count(self, seq_abc):
        from streamcc.policies import SummaryRepository

        store = CaseStore()
        repo = SummaryRepository()
        assert stored_state_count(store, repo) == 0
        pa3 = make_pa(seq_abc, ["A", "B", "C"])
        store["1"] = CaseRecord("1", pa3)
        store["2"] = CaseRecord("2", pa3)
        for i in range(5):
            repo.put(f"r{i}", PrefixAlignment(seq_abc.initial_marking, (), 0.0, 0))
        assert stored_state_count(store, repo) == 11

    def test_bounded_store_at_limit_counts_w_per_case(self):
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=3))
        for case in ("a", "b", "c"):
            for i in range(6):
                engine.process(case, f"A{i}", 0)
        assert stored_state_count(engine.store, engine.repo) == 3 * 3
        assert engine.stored_state_count == 3 * 3


class TestPolicyProperties:
    def test_bound_enforcement_random_streams(self):
        net = cyclic_sequence_net(10)
        for seed in range(5):
            log = generate_log(
                StreamSpec(cases=30, open_cases=10, noise_probability=0.5), seed=seed
            )
            events = list(replay(log))
            for config in (
                PolicyConfig(Policy.BOUNDED_STATES, w=2),
                PolicyConfig(Policy.BOUNDED_CASES, n=4),
                PolicyConfig(Policy.COMBINED, w=2, n=4),
            ):
                checked_replay(ConformanceEngine(net, config), events)

    def test_residual_monotonicity(self):
        net = cyclic_sequence_net(10)
        log = generate_log(StreamSpec(cases=30, open_cases=10, noise_probability=0.6), seed=2)
        events = list(replay(log))
        for config in (
            PolicyConfig(Policy.BOUNDED_STATES, w=2),
            PolicyConfig(Policy.COMBINED, w=2, n=5),
        ):
            engine = ConformanceEngine(net, config)
            seen: dict[str, float] = {}
            for outcome in replay_outcomes(engine, events):
                previous = seen.get(outcome.case_id, 0.0)
                assert outcome.residual_cost >= previous
                seen[outcome.case_id] = outcome.residual_cost

    def test_no_loss_for_conformant_continuations(self):
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_CASES, n=1))
        engine.process("a", "A0", 0)
        engine.process("b", "A0", 1)  # evicts conformant a
        for i in range(1, 8):
            outcome = engine.process("a", f"A{i}", i + 1)
            assert outcome.effective_cost == 0.0
            assert outcome.method is Method.MODEL_SEMANTICS
            engine.process("b", f"A{i}", 100 + i)  # keeps evicting a back and forth

    def test_truncation_without_search_matches_baseline(self):
        net = cyclic_sequence_net(10)
        for seed in range(3):
            log = generate_log(
                StreamSpec(cases=25, open_cases=8, noise_probability=0.5), seed=seed + 40
            )
            events = list(replay(log))
            base_engine = ConformanceEngine(net)
            base_final = {}
            for outcome in replay_outcomes(base_engine, events):
                base_final[outcome.case_id] = outcome.effective_cost
            engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=3))
            truncated: set[str] = set()
            searched_after: set[str] = set()
            final = {}
            for event in events:
                outcome = engine.process(event.case_id, event.activity, event.arrival_index)
                record = engine.store.get(event.case_id)
                if outcome.method is Method.SHORTEST_PATH and event.case_id in truncated:
                    searched_after.add(event.case_id)
                if record.prefix_alignment.summary is not None:
                    truncated.add(event.case_id)
                final[outcome.case_id] = outcome.effective_cost
            for case_id in truncated - searched_after:
                assert final[case_id] == base_final[case_id]

    def test_classification_agreement_at_safe_limits(self):
        net = cyclic_sequence_net(10)
        log = generate_log(StreamSpec(cases=40, open_cases=10, noise_probability=0.5), seed=77)
        events = list(replay(log))
        longest = max(
            sum(1 for e in events if e.case_id == case)
            for case in {e.case_id for e in events}
        )
        base = ConformanceEngine(net)
        bounded = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=longest))
        base_conformant = {o.case_id: o.conformant for o in replay_outcomes(base, events)}
        bounded_conformant = {o.case_id: o.conformant for o in replay_outcomes(bounded, events)}
        assert base_conformant == bounded_conformant

    def test_bounded_search_result_is_locally_optimal(self):
        # when a bounded-states search just ran (no truncation yet applied on
        # top of it), its retained cost equals the oracle's optimum for the
        # recovered subtrace from the carry marking
        net = cyclic_sequence_net(10)
        engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=6))
        trace = ["A0", "A1", "A2", "A3", "A4", "A5", "A6", "ZZ"]
        for i, activity in enumerate(trace):
            engine.process("case", activity, i)
        pa = engine.store.get("case").prefix_alignment
        assert pa.summary is not None
        retained = [a for a, _ in pa.log_projection()]
        local = brute_force_min_cost(net, pa.base_marking, retained)
        assert pa.fitness_cost - pa.summary == local


def _random_net_stream(seed):
    """A ``random_net`` and twelve interleaved cases of noisy walks through it."""
    rng = random.Random(seed)
    net = random_net(rng)
    cases = [random_trace(net, rng, max_len=10) for _ in range(12)]
    pairs = []
    while any(cases):
        case = rng.randrange(len(cases))
        if cases[case]:
            pairs.append((f"c{case}", cases[case].pop(0)))
    return net, pairs


class TestBoundedSearchInTheEngine:
    """The engine's bound changes no outcome; the fractional models round differently per path."""

    @pytest.mark.parametrize(
        "config",
        [
            PolicyConfig(Policy.BASELINE),
            PolicyConfig(Policy.BOUNDED_STATES, w=2),
            PolicyConfig(Policy.BOUNDED_CASES, n=4),
            PolicyConfig(Policy.COMBINED, w=2, n=4),
        ],
        ids=lambda c: c.label,
    )
    def test_outcomes_match_an_engine_that_passes_no_bound(self, config, monkeypatch):
        expansions = 0
        enabled = PetriNet.enabled_transitions

        def counting(self, marking):
            nonlocal expansions
            expansions += 1
            return enabled(self, marking)

        search = policies.shortest_path_prefix_alignment

        def unbounded(*args, upper_bound, **kwargs):
            return search(*args, **kwargs)

        def run(net, pairs, cost_model, bounded):
            nonlocal expansions
            with monkeypatch.context() as patch:
                patch.setattr(PetriNet, "enabled_transitions", counting)
                if not bounded:
                    patch.setattr(policies, "shortest_path_prefix_alignment", unbounded)
                expansions = 0
                engine = ConformanceEngine(net, replace(config, cost_model=cost_model))
                return run_stream(engine, pairs), engine.search_count, expansions

        pruned_total = unpruned_total = 0
        for seed in range(30):
            net, pairs = _random_net_stream(seed)
            for cost_model in (
                CostModel(0.0, 0.1, 0.3, 0.01),
                CostModel(0.0, 0.3, 0.1, 0.1),
                CostModel(0.05, 0.1, 0.3, 0.01),
                CostModel(0.5, 1.0, 1.0, 0.0),
            ):
                pruned, searches, pruned_expansions = run(net, pairs, cost_model, bounded=True)
                unpruned, unpruned_searches, unpruned_expansions = run(net, pairs, cost_model, bounded=False)
                assert pruned == unpruned, (seed, cost_model)
                assert searches == unpruned_searches > 0
                pruned_total += pruned_expansions
                unpruned_total += unpruned_expansions
        assert pruned_total < unpruned_total
