"""Tests of the benchmark's own helpers."""

import math
import random

import pytest

from bench import measure, runner, tracing, workloads
from streamcc import evaluation, pnml, policies, streams, synthetic
from streamcc.policies import Policy, PolicyConfig

BASELINE = PolicyConfig(Policy.BASELINE)


def small_parallel_events(seed=3, cases=30):
    log = workloads.parallel_log(seed, cases=cases)
    return workloads.parallel_net(), list(streams.replay(log))


def small_cycle_events(seed=3):
    spec = synthetic.StreamSpec(cases=30, open_cases=5, noise_probability=0.5)
    log = synthetic.generate_log(spec, seed)
    return synthetic.cyclic_sequence_net(10), list(streams.replay(log))


def fifo_recursion(service, rate):
    """The FIFO recursion written out, as the reference for the closed form."""
    latencies, finish = [], 0.0
    for i, s in enumerate(service):
        due = i / rate
        finish = max(due, finish) + s
        latencies.append(finish - due)
    return latencies


class TestFifo:
    def test_by_hand(self):
        assert list(measure.fifo_latencies([2.0, 2.0, 2.0], rate=1.0)) == [2.0, 3.0, 4.0]
        assert list(measure.fifo_latencies([2.0, 2.0, 2.0], rate=0.25)) == [2.0, 2.0, 2.0]
        # a stall delays the queue behind it until it drains
        assert list(measure.fifo_latencies([5.0, 1.0, 1.0, 1.0], rate=0.5)) == [5.0, 4.0, 3.0, 2.0]

    def test_matches_the_recursion(self):
        rng = random.Random(0)
        service = [rng.expovariate(1000) for _ in range(500)]
        for rate in (100.0, 900.0, 1500.0):
            closed = measure.fifo_latencies(service, rate)
            for a, b in zip(closed, fifo_recursion(service, rate)):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


class TestSustainableRate:
    def test_under_capacity_returns_capacity(self):
        # 1 ms each: at 1000/s every event waits for nothing and takes 1 ms
        assert measure.sustainable_rate([0.001] * 100) == pytest.approx(1000.0)

    def test_stall_sets_the_rate(self):
        # p99 of 100 events is the second largest latency. Event 0 always
        # takes 50 ms; event 1 finishes at 51 ms, so it meets the 10 ms limit
        # only if it is due at 41 ms or later: 1 / 0.041 = 24.39 events/s.
        service = [0.05] + [0.001] * 99
        assert measure.sustainable_rate(service) == pytest.approx(1 / 0.041, rel=1e-6)

    def test_over_capacity_even_when_idle(self):
        service = [0.05, 0.05] + [0.001] * 98
        assert measure.sustainable_rate(service) == 0.0

    def test_failed_events_miss_the_limit(self):
        assert measure.sustainable_rate([math.inf, math.inf] + [0.001] * 98) == 0.0
        assert measure.sustainable_rate([math.inf] + [0.001] * 99) > 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert measure.percentile(values, 0.5) == 50
    assert measure.percentile(values, 0.99) == 99
    assert measure.percentile(values, 0.999) == 100


class TestParallelWorkload:
    def test_deterministic_per_seed(self):
        assert workloads.parallel_log(3).events == workloads.parallel_log(3).events
        assert workloads.parallel_log(3).events != workloads.parallel_log(4).events

    def test_noise_share_is_exact(self):
        log = workloads.parallel_log(5)
        traces = {}
        for event in log.events:
            traces.setdefault(event.case_id, []).append(event.activity)
        lengths = [len(t) for t in traces.values()]
        aliens = sum(workloads.ALIEN in t for t in traces.values())
        assert len(traces) == workloads.PARALLEL_CASES
        assert lengths.count(16) == aliens == 45
        assert lengths.count(14) == 45
        assert lengths.count(15) == 210

    def test_round_trips_through_pnml(self, tmp_path):
        net = workloads.parallel_net()
        path = tmp_path / "parallel.pnml"
        path.write_text(pnml.to_pnml(net), encoding="utf-8")
        loaded = pnml.load_model(path)
        assert loaded.places == net.places
        assert loaded.transitions == net.transitions
        assert loaded.arcs == net.arcs
        assert dict(loaded.labels) == dict(net.labels)
        assert loaded.is_silent("split") and loaded.is_silent("join")
        assert loaded.initial_marking == net.initial_marking
        assert loaded.final_marking == net.final_marking


def test_long_traces_carry_the_same_load_for_every_seed():
    first, second = workloads.long_log(1), workloads.long_log(2)
    assert first.events != second.events
    by_case = lambda log: sorted(
        (e.case_id, e.activity) for e in log.events
    )
    assert by_case(first) == by_case(second)


class TestFailureAccounting:
    def test_exhausted_budget_fails_events_not_the_run(self):
        # on the cycle net only deviations search, so a tiny budget fails those alone
        net, events = small_cycle_events()
        ok = measure.timed_round(net, BASELINE, events)
        starved = measure.timed_round(net, BASELINE, events, budget=1)
        assert ok.failed == 0
        assert 0 < starved.failed < len(events)
        assert len(starved.service_s) == len(events)
        assert sum(math.isinf(s) for s in starved.service_s) == starved.failed
        assert sum(math.isnan(c) for c in starved.costs) == starved.failed
        checked = measure.checked_pass(net, BASELINE, events, budget=1)
        assert checked.failed == starved.failed
        assert checked.costs.tobytes() == starved.costs.tobytes()
        assert checked.digest != measure.checked_pass(net, BASELINE, events).digest


    def test_experiment_counts_events_not_runs(self):
        net, events = small_cycle_events()
        configs = [BASELINE, PolicyConfig(Policy.COMBINED, w=1, n=2)]
        result = evaluation.evaluate_policies(
            net, events, configs, window_size=5, search_budget=1,
            reference_search_budget=measure.alignment.DEFAULT_SEARCH_BUDGET,
        )
        report = runner.Report("experiment", 0)
        attempted, failed = runner._check_experiment(report, result)
        assert attempted == 2 * len(events)
        uncovered = sum(
            len(events) - sum(w.events_in_window for w in run.windows) for run in result.runs
        )
        assert 0 < failed == uncovered < attempted
        assert report.problems == []


class TestChecks:
    def test_checked_pass_agrees_with_timed_round(self):
        net, events = small_parallel_events()
        checked = measure.checked_pass(net, BASELINE, events)
        assert checked.costs.tobytes() == measure.timed_round(net, BASELINE, events).costs.tobytes()
        assert checked.problems == []
        assert measure.optimality_problems(net, events, checked.final_costs) == []

    def test_optimality_check_catches_a_wrong_cost(self):
        net, events = small_parallel_events()
        final = measure.checked_pass(net, BASELINE, events).final_costs
        case = events[0].case_id
        final[case] += 1
        problems = measure.optimality_problems(net, events, final)
        assert len(problems) == 1 and case in problems[0]

    def test_bounds_are_checked_after_every_event(self, monkeypatch):
        net, events = small_parallel_events()
        config = PolicyConfig(Policy.COMBINED, w=2, n=5)
        assert measure.checked_pass(net, config, events).problems == []
        monkeypatch.setattr(policies, "truncate_states", lambda pa, w: pa)
        assert measure.checked_pass(net, config, events).problems


class TestTracer:
    def test_uninstall_restores_every_name(self):
        before = {
            (id(m), k): v for m in tracing.MODULES for k, v in vars(m).items() if callable(v)
        }
        engine_attrs = dict(vars(policies.ConformanceEngine))
        with tracing.Tracer():
            assert policies.extend_model_semantics is not before[(id(policies), "extend_model_semantics")]
        after = {
            (id(m), k): v for m in tracing.MODULES for k, v in vars(m).items() if callable(v)
        }
        assert after == before
        assert dict(vars(policies.ConformanceEngine)) == engine_attrs

    def test_traced_round_counts_match_the_engine(self):
        net, events = small_parallel_events()
        engine = policies.ConformanceEngine(net)
        for e in events:
            engine.process(e.case_id, e.activity, e.arrival_index)
        tracer = tracing.Tracer()
        with tracer:
            traced = measure.timed_round(net, BASELINE, events)
        assert traced.costs == measure.timed_round(net, BASELINE, events).costs
        spans = tracer.span_totals()
        assert spans["alignment.search"]["calls"] == engine.search_count
        assert tracer.sums["extend.hits"] == engine.extension_count
        assert spans["policies.process"]["calls"] == len(events)
        assert tracer.count("petri.enabled_transitions", "alignment.search") > 0
        for entry in spans.values():
            assert 0 <= entry["self_ms"] <= entry["total_ms"] + 1e-9


@pytest.mark.parametrize("name", ["parallel-alien"])
def test_default_seed_digest_is_recorded(name):
    workload = workloads.WORKLOADS[name]
    net, log = workload.net(), workload.log(workload.default_seed)
    events = list(streams.replay(log))
    assert measure.checked_pass(net, workload.policy, events).digest == workload.digest
