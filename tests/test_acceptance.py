"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported measurements.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
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
    evaluate_policies,
    generate_log,
    parse_csv_log,
    replay,
    replicate_events,
    shortest_path_prefix_alignment,
)
from streamcc import alignment, policies
from streamcc.alignment import DEFAULT_COST_MODEL, DEFAULT_SEARCH_BUDGET
from streamcc.evaluation import ExperimentConfig, load_experiment_inputs
from streamcc.policies import CaseRecord, CaseStore, _forgetting_rank
from streamcc.streams import StreamEvent

from oracles import (
    below_baseline,
    brute_force_min_cost,
    checked_replay,
    log_step,
    peak_concurrent_cases,
    random_net,
    random_trace,
    replay_outcomes,
    select_forget_victim,
    stored_state_count,
    sync_step,
)


def report(line: str) -> None:
    print(f"\n{line}")


# -- shared fixtures ---------------------------------------------------------

# noise kinds here resolve within a few events of lookback; the swap edit is
# included and the edits are spaced, so five retained states always suffice
LOOKBACK_SPEC = StreamSpec(
    cases=1000,
    open_cases=50,
    base_length=10,
    length_jitter=2,
    noise_probability=0.35,
    max_edits=2,
    min_gap=6,
    kinds=("alien", "skip", "duplicate", "swap"),
)
LOOKBACK_SEED = 42

# high-churn stream: 1000 cases, mean trace length ~10 with a long-case tail,
# over 200 cases concurrently open, every case carrying noise
CHURN_SPEC = StreamSpec(
    cases=1000,
    open_cases=230,
    base_length=7,
    length_jitter=2,
    long_fraction=0.05,
    long_length=60,
    noise_probability=1.0,
    max_edits=4,
    min_gap=4,
    kinds=("alien", "skip", "duplicate"),
)
CHURN_SEED = 77

WINDOW = 1000


@pytest.fixture(scope="module")
def net():
    return cyclic_sequence_net(10)


@pytest.fixture(scope="module")
def churn_events(net):
    log = generate_log(CHURN_SPEC, seed=CHURN_SEED)
    events = list(replay(log))
    lengths: dict[str, int] = {}
    for event in events:
        lengths[event.case_id] = lengths.get(event.case_id, 0) + 1
    assert len(lengths) == 1000
    mean = sum(lengths.values()) / len(lengths)
    assert 9.0 <= mean <= 11.0
    assert peak_concurrent_cases(log) >= 200
    return events


@pytest.fixture(scope="module")
def churn_runs(net, churn_events):
    result = evaluate_policies(
        net,
        churn_events,
        [
            PolicyConfig(Policy.BASELINE),
            PolicyConfig(Policy.BOUNDED_STATES, w=3),
            PolicyConfig(Policy.COMBINED, w=5, n=100),
        ],
        window_size=WINDOW,
    )
    assert all(run.error is None for run in result.runs)
    return {run.label: run for run in result.runs}


# -- criterion 1: alignment optimality oracle --------------------------------


def test_criterion_1_alignment_optimality_oracle():
    started = time.monotonic()
    for seed in range(200):
        rng = random.Random(seed)
        net = random_net(rng)
        trace = random_trace(net, rng, max_len=6)
        expected = brute_force_min_cost(net, net.initial_marking, trace)
        found = shortest_path_prefix_alignment(net, net.initial_marking, trace)
        assert found.fitness_cost == expected, (seed, trace)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(f"ACCEPTANCE 1 alignment-optimality: PASS (200 nets, {elapsed:.1f}s)")


# -- criterion 2: degenerate-limit equivalence -------------------------------


def _interleaved_random_net_stream(seed: int) -> tuple:
    rng = random.Random(seed)
    net = random_net(rng)
    traces = {f"c{i:02d}": random_trace(net, rng, max_len=6) for i in range(20)}
    pool = list(traces)
    cursor = {c: 0 for c in pool}
    events = []
    while pool:
        case = rng.choice(pool)
        events.append(StreamEvent(case, traces[case][cursor[case]], len(events)))
        cursor[case] += 1
        if cursor[case] >= len(traces[case]):
            pool.remove(case)
    return net, events


def test_criterion_2_degenerate_limit_equivalence(net):
    started = time.monotonic()
    degenerate = (
        PolicyConfig(Policy.BOUNDED_STATES, w=64),
        PolicyConfig(Policy.BOUNDED_CASES, n=10**6),
        PolicyConfig(Policy.COMBINED, w=64, n=10**6),
    )
    checked = 0
    for seed in range(25):
        log = generate_log(
            StreamSpec(cases=30, open_cases=8, base_length=8, noise_probability=0.5),
            seed=seed,
        )
        events = list(replay(log))
        assert len(events) <= 500
        base = [
            o.effective_cost for o in replay_outcomes(ConformanceEngine(net), events)
        ]
        for config in degenerate:
            engine = ConformanceEngine(net, config)
            costs = [o.effective_cost for o in replay_outcomes(engine, events)]
            assert costs == base, (seed, config.label)
        checked += 1
    for seed in range(25):
        rnet, events = _interleaved_random_net_stream(seed + 10_000)
        assert len(events) <= 500
        base = [
            o.effective_cost for o in replay_outcomes(ConformanceEngine(rnet), events)
        ]
        for config in degenerate:
            engine = ConformanceEngine(rnet, config)
            costs = [o.effective_cost for o in replay_outcomes(engine, events)]
            assert costs == base, (seed, config.label)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 50
    assert elapsed < 60
    report(f"ACCEPTANCE 2 degenerate-limits: PASS (50 streams, {elapsed:.1f}s)")


# -- criterion 3: bound enforcement ------------------------------------------


BOUND_CONFIGS = (
    PolicyConfig(Policy.BOUNDED_STATES, w=1),
    PolicyConfig(Policy.BOUNDED_STATES, w=3),
    PolicyConfig(Policy.BOUNDED_CASES, n=1),
    PolicyConfig(Policy.BOUNDED_CASES, n=100),
    PolicyConfig(Policy.COMBINED, w=2, n=2),
    PolicyConfig(Policy.COMBINED, w=5, n=100),
)


def _bound_streams() -> list[list[StreamEvent]]:
    """Four small noisy streams, which criteria 3 and 10 replay under ``BOUND_CONFIGS``."""
    spec = StreamSpec(cases=40, open_cases=12, noise_probability=0.6)
    return [list(replay(generate_log(spec, seed=seed))) for seed in range(4)]


def test_criterion_3_bound_enforcement(net, churn_events):
    for events in _bound_streams():
        for config in BOUND_CONFIGS:
            checked_replay(ConformanceEngine(net, config), events)
    checked_replay(
        ConformanceEngine(net, PolicyConfig(Policy.COMBINED, w=5, n=100)),
        churn_events,
    )
    report("ACCEPTANCE 3 bound-enforcement: PASS (asserted after every event)")


# -- criterion 4: bounded-states fidelity -------------------------------------


def test_criterion_4_bounded_states_fidelity(net):
    started = time.monotonic()
    events = list(replay(generate_log(LOOKBACK_SPEC, seed=LOOKBACK_SEED)))
    result = evaluate_policies(
        net,
        events,
        [PolicyConfig(Policy.BOUNDED_STATES, w=w) for w in range(1, 6)],
        window_size=WINDOW,
    )
    for run in result.runs:
        assert run.error is None
        assert all(w.f1_classification == 1.0 for w in run.windows), run.label
    w5 = result.runs[-1]
    assert w5.label == "bounded-states-w5"
    assert all(w.rmse_fitness == 0.0 for w in w5.windows)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(
        "ACCEPTANCE 4 bounded-states-fidelity: PASS "
        f"(w=5 RMSE 0 in all {len(w5.windows)} windows; F1 1.0 for w=1..5; {elapsed:.1f}s)"
    )


# -- criterion 5: memory reduction at desk scale ------------------------------


def test_criterion_5_memory_reduction(churn_runs):
    started = time.monotonic()
    baseline = churn_runs["baseline"].windows
    combined = churn_runs["combined-w5-n100"].windows
    assert len(baseline) == len(combined)
    ratios = [
        c.max_stored_states / b.max_stored_states for b, c in zip(baseline, combined)
    ]
    for window, ratio in enumerate(ratios):
        if window == 0:
            continue  # warm-up window excluded
        assert ratio <= 0.5, (window, ratio)
    elapsed = time.monotonic() - started
    assert elapsed < 120
    report(
        "ACCEPTANCE 5 memory-reduction: PASS "
        f"(peak ratios after warm-up: {', '.join(f'{r:.2f}' for r in ratios[1:])})"
    )


# -- criterion 6: forgetting-criteria unit suite -------------------------------


class TestCriterion6ForgettingCriteria:
    @pytest.fixture
    def seq(self):
        from conftest import make_seq_abc

        return make_seq_abc()

    def monuple(self, net, case_id):
        pa = PrefixAlignment.empty(net.initial_marking).append(
            sync_step("A", "A", 0, 0.0, net.fire(net.initial_marking, "A"))
        )
        return CaseRecord(case_id, pa)

    def residual(self, net, case_id, kappa):
        pa = PrefixAlignment(net.initial_marking, (), kappa, 0)
        return CaseRecord(case_id, pa.append(log_step("X", 0.0, net.initial_marking)))

    def conformant(self, net, case_id):
        after_a = net.fire(net.initial_marking, "A")
        after_b = net.fire(after_a, "B")
        pa = (
            PrefixAlignment.empty(net.initial_marking)
            .append(sync_step("A", "A", 0, 0.0, after_a))
            .append(sync_step("B", "B", 1, 0.0, after_b))
        )
        return CaseRecord(case_id, pa)

    def costly(self, net, case_id, cost):
        pa = PrefixAlignment.empty(net.initial_marking)
        for i in range(int(cost)):
            pa = pa.append(log_step(f"X{i}", 1.0, net.initial_marking))
        return CaseRecord(case_id, pa)

    def build_store(self, *records):
        store = CaseStore()
        for record in records:
            store[record.case_id] = record
        return store

    def test_condition_1_monuple_wins(self, seq):
        store = self.build_store(self.costly(seq, "bad", 3), self.monuple(seq, "mono"))
        assert select_forget_victim(store, {"bad": 0, "mono": 9}) == "mono"

    def test_condition_1_early_stop_takes_first_in_scan_order(self, seq):
        store = self.build_store(
            self.monuple(seq, "later-but-first-added"),
            self.monuple(seq, "older-update"),
        )
        last_arrival = {"later-but-first-added": 7, "older-update": 1}
        assert select_forget_victim(store, last_arrival) == "later-but-first-added"

    def test_condition_order_2_over_3_over_4(self, seq):
        store = self.build_store(
            self.residual(seq, "kappa2", kappa=2.0),
            self.conformant(seq, "cost0"),
            self.costly(seq, "kappa0cost3", 3),
        )
        last_arrival = {"kappa2": 0, "cost0": 1, "kappa0cost3": 2}
        assert select_forget_victim(store, last_arrival) == "kappa2"
        store.pop("kappa2")
        assert select_forget_victim(store, last_arrival) == "cost0"
        store.pop("cost0")
        assert select_forget_victim(store, last_arrival) == "kappa0cost3"

    def test_conditions_2_to_4_are_exhaustive(self, seq):
        records = [
            self.monuple(seq, "m"),
            self.residual(seq, "r", 1.0),
            self.conformant(seq, "c"),
            self.costly(seq, "x", 2),
            self.residual(seq, "rz", 0.0),
        ]
        for record in records:
            pa = record.prefix_alignment
            kappa = pa.carried_cost
            classes = [kappa > 0, pa.fitness_cost == 0, kappa == 0 and pa.fitness_cost > 0]
            assert sum(classes) == 1

    def test_lru_tie_break(self, seq):
        store = self.build_store(self.conformant(seq, "recent"), self.conformant(seq, "stale"))
        assert select_forget_victim(store, {"recent": 9, "stale": 3}) == "stale"
        store = self.build_store(self.conformant(seq, "zz"), self.conformant(seq, "aa"))
        assert select_forget_victim(store, {"zz": 5, "aa": 5}) == "aa"

    def test_engine_index_matches_scan(self, seq):
        net = cyclic_sequence_net(10)
        events = list(
            replay(
                generate_log(
                    StreamSpec(cases=60, open_cases=20, noise_probability=0.7), seed=13
                )
            )
        )
        bounded = PolicyConfig(Policy.BOUNDED_CASES, n=5)
        combined = PolicyConfig(Policy.COMBINED, w=2, n=7)
        # with sync_cost > 0 no stored case is fully conformant, so rank 3
        # never applies and ranks 2 and 4 are told apart by the carried cost
        fractional = CostModel(0.05, 0.1, 0.3, 0.01)
        unit_sync = CostModel(0.5, 1.0, 1.0, 0.0)
        # (config, cost model, search budget, least number of checked
        # evictions, sha256 over the repr of every outcome, one line each)
        for config, cost_model, budget, min_checked, outcome_digest in (
            (bounded, DEFAULT_COST_MODEL, DEFAULT_SEARCH_BUDGET, 475, None),
            (combined, DEFAULT_COST_MODEL, DEFAULT_SEARCH_BUDGET, 405, None),
            (bounded, DEFAULT_COST_MODEL, 5, 1, None),
            (PolicyConfig(Policy.COMBINED, w=1, n=1), DEFAULT_COST_MODEL, DEFAULT_SEARCH_BUDGET, 593, None),
            (bounded, fractional, DEFAULT_SEARCH_BUDGET, 1,
             "c7924a106debdc66d3034e6c1cdb846a06183839d2ae1fa87e0dca240865ac90"),
            (combined, fractional, DEFAULT_SEARCH_BUDGET, 1,
             "4e71adefd2e1e0483dfb548015edcfea4e515371823366c61dc08285f19304dd"),
            (bounded, unit_sync, DEFAULT_SEARCH_BUDGET, 1,
             "ec3db5689e829e0dada073a792dcb2ce06a1326d962a7edbca1b4df67e6b8ff4"),
            (combined, unit_sync, DEFAULT_SEARCH_BUDGET, 1,
             "b771efdf25899dcb624a4502ec3364a80f54ddc6d3ad06f03a58dc0701479617"),
        ):
            engine = ConformanceEngine(
                net, replace(config, cost_model=cost_model), search_budget=budget
            )
            evict = engine._evict_one
            checked = 0
            failed = 0
            digest = hashlib.sha256()
            # each case's last event the engine processed, read from the stream
            last_arrival: dict[str, int] = {}

            def checked_evict():
                nonlocal checked
                assert engine._pick_victim() == select_forget_victim(engine.store, last_arrival)
                checked += 1
                evict()

            engine._evict_one = checked_evict
            for e in events:
                try:
                    outcome = engine.process(e.case_id, e.activity, e.arrival_index)
                    digest.update((repr(outcome) + "\n").encode())
                    last_arrival[e.case_id] = e.arrival_index
                except SearchBudgetExceeded:
                    failed += 1
                # exactly one index entry per stored case, in the bucket of its alignment's rank
                entries = sorted(c for bucket in engine._buckets.values() for c in bucket)
                assert entries == sorted(r.case_id for r in engine.store.records())
                for rank, bucket in engine._buckets.items():
                    for c in bucket:
                        assert rank == _forgetting_rank(engine.store[c].prefix_alignment), c
                assert engine.stored_state_count == stored_state_count(engine.store, engine.repo)
            assert checked >= min_checked
            assert (failed > 0) == (budget < DEFAULT_SEARCH_BUDGET)
            if cost_model.sync_cost > 0:
                assert not engine._buckets[3]
            if outcome_digest is not None:
                assert digest.hexdigest() == outcome_digest

    def test_report(self):
        report("ACCEPTANCE 6 forgetting-criteria: PASS (all conditions, early stop, LRU)")


# -- criterion 7: search-count reduction ---------------------------------------


def test_criterion_7_search_count_reduction(churn_runs):
    baseline = churn_runs["baseline"]
    bounded = churn_runs["bounded-states-w3"]
    assert bounded.search_count <= baseline.search_count
    report(
        "ACCEPTANCE 7 search-count: PASS "
        f"(bounded-states w=3: {bounded.search_count} searches, "
        f"baseline: {baseline.search_count})"
    )


# -- criterion 8: APTE stability -----------------------------------------------


def _least_squares_slope(values: list[float]) -> float:
    from statistics import linear_regression

    slope, _ = linear_regression(range(len(values)), values)
    return slope


def test_criterion_8_apte_stability(net, churn_events):
    started = time.monotonic()
    k = 5
    configs = [
        PolicyConfig(Policy.BASELINE),
        PolicyConfig(Policy.BOUNDED_STATES, w=5),
        PolicyConfig(Policy.BOUNDED_CASES, n=100),
        PolicyConfig(Policy.COMBINED, w=5, n=100),
    ]
    # all engines are timed interleaved on the same k-replicated stream so
    # ambient machine noise hits every policy equally; garbage collection
    # is paused during timing (the engines' data has no reference cycles)
    warmers = [ConformanceEngine(net, c) for c in configs]
    for event in churn_events[:1500]:
        for warm in warmers:
            warm.process(event.case_id, event.activity, event.arrival_index)
    engines = [ConformanceEngine(net, c) for c in configs]
    streams = [list(replicate_events(churn_events, k)) for _ in configs]
    sums = [dict() for _ in configs]
    base_len = len(churn_events)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for i in range(base_len * k):
            window = (i % base_len) // WINDOW
            for j, engine in enumerate(engines):
                event = streams[j][i]
                t0 = time.perf_counter_ns()
                engine.process(event.case_id, event.activity, event.arrival_index)
                sums[j][window] = sums[j].get(window, 0) + time.perf_counter_ns() - t0
    finally:
        if gc_was_enabled:
            gc.enable()

    counts: dict[int, int] = {}
    for i in range(base_len * k):
        window = (i % base_len) // WINDOW
        counts[window] = counts.get(window, 0) + 1
    means = {
        configs[j].label: [sums[j][w] / counts[w] / 1000.0 for w in sorted(sums[j])]
        for j in range(len(configs))
    }
    baseline = means["baseline"]
    base_slope = _least_squares_slope(baseline)
    lines = [f"baseline slope {base_slope:+.2f} us/window"]
    for label, series in means.items():
        if label == "baseline":
            continue
        slope = _least_squares_slope(series)
        assert slope <= base_slope, (label, slope, base_slope)
        for window, (mean, base_mean) in enumerate(zip(series, baseline)):
            assert mean <= base_mean * 1.1, (label, window, mean, base_mean)
        worst = max(m / b for m, b in zip(series, baseline))
        lines.append(f"{label} slope {slope:+.2f}, worst window ratio {worst:.2f}")
    elapsed = time.monotonic() - started
    report("ACCEPTANCE 8 apte-stability: PASS (" + "; ".join(lines) + f"; {elapsed:.0f}s)")


# -- criterion 9: format fidelity ----------------------------------------------


def test_criterion_9_format_fidelity(data_dir):
    log = parse_csv_log(data_dir / "sample_stream.csv")
    assert [e.event_id for e in log.events] == list(range(1, 10))
    stream = list(replay(log))
    assert [(e.arrival_index, e.case_id, e.activity) for e in stream] == [
        (0, "1", "A"),
        (1, "2", "A"),
        (2, "1", "B"),
        (3, "2", "B"),
        (4, "3", "A"),
        (5, "3", "E"),
        (6, "3", "F"),
        (7, "3", "G"),
        (8, "1", "C"),
    ]
    # events 8 and 9 share a timestamp; log order decides
    assert log.events[7].timestamp == log.events[8].timestamp
    report("ACCEPTANCE 9 format-fidelity: PASS (arrival order 1-9, tie by log order)")


# -- criterion 10: a lossy policy never costs less than the baseline ----------

# unit costs on every move but the synchronous one, silent moves included
UNIT_MODEL_COSTS = CostModel(0.0, 1.0, 1.0, 1.0)


def _experiment_policies(data_dir) -> tuple:
    """The shipped experiment's net and stream, and its 35 bounded policies."""
    config = ExperimentConfig.from_json(data_dir / "experiment_example.json")
    net, events = load_experiment_inputs(config)
    bounded = [policy for policy in config.policies if policy.policy is not Policy.BASELINE]
    assert len(bounded) == 35
    return net, events, bounded


def test_criterion_10_never_below_the_baseline(net, churn_events, data_dir):
    started = time.monotonic()
    experiment_net, experiment_events, bounded = _experiment_policies(data_dir)
    compared = 0
    for cost_model in (DEFAULT_COST_MODEL, UNIT_MODEL_COSTS):
        configs = [replace(config, cost_model=cost_model) for config in bounded]
        assert below_baseline(experiment_net, experiment_events, configs) == []
        compared += len(configs) * len(experiment_events)
    for events in _bound_streams():
        assert below_baseline(net, events, list(BOUND_CONFIGS)) == []
        compared += len(BOUND_CONFIGS) * len(events)
    assert below_baseline(net, churn_events, [PolicyConfig(Policy.COMBINED, w=5, n=100)]) == []
    compared += len(churn_events)
    elapsed = time.monotonic() - started
    assert elapsed < 60
    report(
        "ACCEPTANCE 10 never-below-baseline: PASS "
        f"({compared} policy events in lockstep with the baseline, {elapsed:.1f}s)"
    )


def test_criterion_10_catches_a_summary_without_the_forgotten_moves_cost(data_dir, monkeypatch):
    # truncation that keeps only the carried cost in the summary: the
    # forgotten moves' cost is lost, so a deviating case's cost drops
    truncate = alignment.truncated_alignment

    def forgets_the_moves_cost(base_marking, states, summary, refs, w):
        truncated = truncate(base_marking, states, summary, refs, w)
        if truncated is None:
            return None
        return truncated._replace(summary=0.0 if summary is None else summary)

    monkeypatch.setattr(alignment, "truncated_alignment", forgets_the_moves_cost)
    monkeypatch.setattr(policies, "truncated_alignment", forgets_the_moves_cost)
    experiment_net, experiment_events, bounded = _experiment_policies(data_dir)
    problems = below_baseline(experiment_net, experiment_events, bounded)
    assert problems
    # only policies with a state limit truncate
    assert {label for label, *_ in problems} <= {config.label for config in bounded if config.w is not None}
    report(f"ACCEPTANCE 10 mutant: {len(problems)} of {35 * len(experiment_events)} policy events below the baseline")
