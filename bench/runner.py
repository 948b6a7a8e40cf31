"""Runs one workload, or all of them, and reports metrics and check results.

See ``bench/run.py`` for the command line and ``bench/measure.py`` for how
time is measured.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from bench import measure, tracing, workloads
from streamcc import evaluation, pnml, streams
from streamcc.policies import Policy, PolicyConfig

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "streamcc"
SETUP_REPEATS = 11
MIN_ROUNDS = 3


@dataclass
class Report:
    workload: str
    seed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    # printed with the metrics but left out of the result line
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    _mark: float = field(default_factory=time.perf_counter)

    def phase(self, name: str) -> None:
        """Note how long the part of the run since the previous phase took."""
        now = time.perf_counter()
        self.notes.append(f"phase {name} took {now - self._mark:.2f} s")
        self._mark = now

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def result(self) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in self.metrics.items()},
        }

    def print(self) -> None:
        print(f"workload {self.workload} seed {self.seed}")
        for note in self.notes:
            print(f"  {note}")
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:<40} {value:>16.6g} {unit}")
        for name, (value, unit) in self.extra.items():
            print(f"  {name:<40} {value:>16.6g} {unit} (not in the result line)")
        share = self.failed / self.attempted if self.attempted else 0.0
        print(f"  events_failed_share {share:.6g} ({self.failed} of {self.attempted})")
        for problem in self.problems:
            print(f"  CHECK FAILED: {problem}")
        print(json.dumps(self.result()), flush=True)


def _median_setup(setup, repeats: int):
    """Run ``setup`` ``repeats`` times; its result and median time at reference speed."""
    times = []
    for _ in range(repeats):
        value, timed = measure.timed_call(setup)
        times.append(timed.wall_s)
    return value, statistics.median(times)


# -- stream workloads ----------------------------------------------------------


def _stream_setup(files):
    net = pnml.load_model(files.model)
    events = list(streams.replay(streams.parse_csv_log(files.log)))
    return net, events


def _stream_checks(report: Report, workload, seed: int, net, events):
    """Untimed checks; returns the checked pass and the baseline costs by event."""
    checked = measure.checked_pass(net, workload.policy, events)
    for problem in checked.problems:
        report.check(False, f"bound: {problem}")
    if workload.policy.policy is Policy.BASELINE:
        baseline, final = checked.costs, checked.final_costs
    else:
        engine, baseline = measure.replay(net, PolicyConfig(Policy.BASELINE), events)
        final = measure.final_costs(engine)
    for problem in measure.optimality_problems(net, events, final):
        report.check(False, f"optimality: {problem}")
    if seed == workload.default_seed:
        report.check(
            checked.digest == workload.digest,
            f"outcome digest {checked.digest} != recorded {workload.digest}",
        )
    report.notes.append(f"outcome digest {checked.digest}")
    return checked, baseline


def _check_round(report: Report, label: str, round_, checked) -> None:
    """A timed replay must give the checked pass's costs and failures.

    The timed loop keeps only the costs; the full outcomes are digested in
    the checked pass alone, outside the timed sections.
    """
    report.check(
        round_.costs.tobytes() == checked.costs.tobytes() and round_.failed == checked.failed,
        f"{label} costs differ from the checked pass",
    )


def run_stream(workload, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(workload.name, seed)
    work = WORK / f"{workload.name}-seed{seed}"
    setup_tracer = tracing.Tracer() if trace else None
    with setup_tracer or nullcontext():
        files = workloads.write_stream_inputs(workload, seed, work)
        (net, events), setup_s = _median_setup(
            lambda: _stream_setup(files), 1 if trace else SETUP_REPEATS
        )
    report.notes.append(f"{len(events)} events, policy {workload.policy.label}")
    report.phase("setup")
    checked, baseline = _stream_checks(report, workload, seed, net, events)
    report.phase("checks")

    if trace:
        untraced = measure.timed_round(net, workload.policy, events)
        pass_tracer = tracing.Tracer()
        with pass_tracer:
            traced = measure.timed_round(net, workload.policy, events)
        for label, round_ in (("untraced", untraced), ("traced", traced)):
            _check_round(report, label, round_, checked)
        report.attempted, report.failed = len(events), traced.failed
        _layer_metrics(report, setup_tracer, pass_tracer, untraced, traced, checked.bytes_per_slot)
        _write_trace(report, setup_tracer, pass_tracer)
        return report

    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < seconds:
        rounds.append(measure.timed_round(net, workload.policy, events))
    report.phase("timed")
    for index, round_ in enumerate(rounds):
        _check_round(report, f"timed replay {index}", round_, checked)
    report.attempted = sum(len(r.service_s) for r in rounds)
    report.failed = sum(r.failed for r in rounds)
    rmse_max, f1_min = measure.window_quality(
        events, checked.costs, baseline, workloads.QUALITY_WINDOW
    )
    _timing_metrics(report, rounds)
    _common_metrics(report, setup_s, checked, rmse_max, f1_min)
    report.phase("metrics")
    return report


# -- experiment workload -------------------------------------------------------


def _experiment_config(workload, seed: int):
    config = evaluation.ExperimentConfig.from_json(ROOT / workloads.EXPERIMENT_CONFIG)
    return replace(
        config, synthetic_seed=seed, output_dir=WORK / f"{workload.name}-seed{seed}" / "out"
    )


def _csv_digest(result, directory: Path) -> str:
    """SHA-256 of the result CSVs, each row without its last column (``apte_us``)."""
    digest = hashlib.sha256()
    paths = evaluation.write_results(result, directory)
    for path in sorted(p for p in paths if p.suffix == ".csv"):
        digest.update(f"{path.name}\n".encode())
        for line in path.read_text(encoding="utf-8").splitlines():
            digest.update((line.rsplit(",", 1)[0] + "\n").encode())
    return digest.hexdigest()


def _check_experiment(report: Report, result) -> tuple[int, int]:
    """Check a result's shape; returns the events its policy runs attempted and failed.

    Every run attempts the whole stream. A run that exhausts its search
    budget is not checked, and the events its windows do not cover count
    as failed.
    """
    attempted = failed = 0
    for run in result.runs:
        covered = sum(w.events_in_window for w in run.windows)
        attempted += result.events_total
        if run.error is not None:
            failed += result.events_total - covered
            continue
        report.check(covered == result.events_total, f"{run.label}: windows cover {covered} events")
        if run.label == "baseline":
            report.check(
                all(w.rmse_fitness == 0 and w.f1_classification == 1 for w in run.windows),
                "baseline differs from its own reference",
            )
    return attempted, failed


def _check_worst_run(report: Report, config, net, events, result, baseline_costs) -> None:
    """Recompute, from a fresh replay, the window RMSE and F1 of the run with the largest RMSE.

    This checks the experiment's ``rmse_max`` at every seed, not only
    through the digest at the default seed.
    """
    runs = [run for run in result.runs if run.error is None]
    worst = max(runs, key=lambda run: max(w.rmse_fitness for w in run.windows))
    reported = (
        max(w.rmse_fitness for w in worst.windows),
        min(w.f1_classification for w in worst.windows),
    )
    _, costs = measure.replay(net, worst.config, events, config.search_budget)
    recomputed = measure.window_quality(events, costs, baseline_costs, result.window_size)
    report.check(
        recomputed == reported,
        f"{worst.label}: reported worst window rmse, f1 {reported} != recomputed {recomputed}",
    )


def run_experiment(workload, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(workload.name, seed)
    config = _experiment_config(workload, seed)
    setup_tracer = tracing.Tracer() if trace else None
    with setup_tracer or nullcontext():
        (net, events), setup_s = _median_setup(
            lambda: evaluation.load_experiment_inputs(config), 1 if trace else SETUP_REPEATS
        )
    report.notes.append(f"{len(events)} events, {len(config.policies)} policies")
    report.phase("setup")
    # Memory and optimality come from the baseline, the policy that keeps most.
    checked = measure.checked_pass(net, PolicyConfig(Policy.BASELINE), events, config.search_budget)
    for problem in measure.optimality_problems(net, events, checked.final_costs):
        report.check(False, f"optimality: {problem}")
    report.phase("checks")

    if trace:
        # no probes inside the traced run, where they would count as harness time
        untraced_result, untraced = measure.timed_call(lambda: evaluation.run_experiment(config))
        pass_tracer = tracing.Tracer()
        with pass_tracer:
            traced_result, traced = measure.timed_call(lambda: evaluation.run_experiment(config))
        _check_experiment(report, untraced_result)
        report.attempted, report.failed = _check_experiment(report, traced_result)
        _layer_metrics(report, setup_tracer, pass_tracer, untraced, traced, checked.bytes_per_slot)
        _write_trace(report, setup_tracer, pass_tracer)
        return report

    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        with measure.ServiceTimer() as timer:
            result = evaluation.run_experiment(config)
        rounds.append(timer.round)
        attempted, failed = _check_experiment(report, result)
        report.attempted += attempted
        report.failed += failed
        if len(rounds) == 1:
            digest = _csv_digest(result, config.output_dir)
            report.notes.append(f"csv digest {digest}")
            if seed == workload.default_seed:
                report.check(digest == workload.digest, f"csv digest {digest} != recorded {workload.digest}")
    report.phase("timed")
    _check_worst_run(report, config, net, events, result, checked.costs)
    report.phase("rmse check")
    windows = [w for run in result.runs for w in run.windows]
    _timing_metrics(report, rounds)
    checked.peak_stored_states = max(w.max_stored_states for w in windows)
    _common_metrics(
        report,
        setup_s,
        checked,
        max(w.rmse_fitness for w in windows),
        min(w.f1_classification for w in windows),
    )
    return report


# -- metrics -------------------------------------------------------------------


def _timing_metrics(report: Report, rounds) -> None:
    """Timing metrics over all rounds pooled, at reference CPU speed (see ``bench/measure.py``)."""
    service = [s for r in rounds for s in r.service_s]
    wall = sum(r.wall_s for r in rounds)
    raw_wall = sum(r.raw_wall_s for r in rounds)
    report.notes.append(f"{len(rounds)} rounds, {len(service)} timed events")
    report.notes.append(
        f"measured {len(service) / raw_wall:.6g} events/s; measured time was "
        f"{raw_wall / wall:.3f}x the time at reference speed"
    )
    report.add("events_per_s", len(service) / wall, "1/s")
    for name, q in (("p50", 0.5), ("p99", 0.99), ("p999", 0.999)):
        report.add(f"latency_{name}_us", measure.percentile(service, q) * 1e6, "us")
    # Left out of the result line: it turns on the handful of events just
    # past p99, so it moves 25-45% between seeds on long-traces and
    # parallel-alien, more than any bound the benchmark may set.
    report.extra["sustainable_events_per_s"] = (
        statistics.median(measure.sustainable_rate(r.service_s) for r in rounds),
        "1/s",
    )
    report.add("wall_s", statistics.median(r.wall_s for r in rounds), "s")


def _common_metrics(report: Report, setup_s: float, checked, rmse_max: float, f1_min: float) -> None:
    report.add("peak_stored_states", checked.peak_stored_states, "count")
    report.add("peak_heap_mb", checked.peak_heap_bytes / 1e6, "MB")
    report.add("setup_s", setup_s, "s")
    report.add("f1_min", f1_min, "ratio")
    # Left out of the result line: it is 0 on the two baseline workloads,
    # and a gated metric must never be 0. The experiment's value is checked
    # by ``_check_worst_run`` instead.
    report.extra["rmse_max"] = (rmse_max, "cost")


def _layer_metrics(report: Report, setup, traced, untraced_round, traced_round,
                   bytes_per_slot: float) -> None:
    """Per-layer metrics of the traced pass; ``setup`` traced the input making and loading."""
    spans = traced.span_totals()
    setup_spans = setup.span_totals()

    def span(name: str, key: str, totals=spans) -> float:
        return totals.get(name, {}).get(key, 0.0)

    searches = span("alignment.search", "calls")
    expansions = traced.count("petri.enabled_transitions", "alignment.search")
    extends = span("alignment.extend", "calls")
    add = report.add
    add("alignment.search_calls", searches, "count")
    add("alignment.search_self_ms", span("alignment.search", "self_ms"), "ms")
    add("alignment.search_expansions", expansions, "count")
    add("alignment.search_expansions_per_call", expansions / searches if searches else 0.0, "count")
    add("alignment.search_trace_len_mean",
        traced.sums["search.trace_len"] / searches if searches else 0.0, "events")
    add("alignment.search_yield", traced.sums["search.moves"] / expansions if expansions else 0.0, "ratio")
    add("alignment.extend_calls", extends, "count")
    add("alignment.extend_hit_ratio", traced.sums["extend.hits"] / extends if extends else 0.0, "ratio")
    add("alignment.extend_self_ms", span("alignment.extend", "self_ms"), "ms")
    add("petri.fire_calls", traced.count("petri.fire"), "count")
    add("petri.enabled_transitions_calls", traced.count("petri.enabled_transitions"), "count")
    add("petri.is_enabled_calls", traced.count("petri.is_enabled"), "count")
    add("policies.process_self_ms", span("policies.process", "self_ms"), "ms")
    add("policies.evictions", traced.count("policies.repo_put"), "count")
    add("policies.resumptions", traced.sums["policies.resumptions"], "count")
    add("policies.truncate_calls", span("policies.truncate_states", "calls"), "count")
    add("policies.truncate_self_ms", span("policies.truncate_states", "self_ms"), "ms")
    add("policies.stored_state_count_calls", span("policies.stored_state_count", "calls"), "count")
    add("policies.stored_state_count_self_ms", span("policies.stored_state_count", "self_ms"), "ms")
    add("policies.store_cases_peak", traced.store_cases_peak, "count")
    add("policies.repo_summaries_final", traced.repo_summaries_final, "count")
    add("policies.bytes_per_slot", bytes_per_slot, "B")
    for name in ("pnml.load_model", "streams.parse_csv_log", "streams.replay", "synthetic.generate_log"):
        add(f"{name}_ms", span(name, "total_ms", setup_spans), "ms")
    add("evaluation.reference_costs_ms", span("evaluation.reference_costs", "total_ms"), "ms")
    add("evaluation.window_metrics_ms",
        span("evaluation.rmse", "total_ms") + span("evaluation.f1", "total_ms"), "ms")
    add("evaluation.self_ms", sum(
        span(name, "self_ms")
        for name in ("evaluation.run_experiment", "evaluation.load_experiment_inputs",
                     "evaluation.evaluate_policies", "evaluation.reference_costs")
    ), "ms")
    pauses = [end - start for _, start, end in traced.gc_events]
    add("gc.collections", len(pauses), "count")
    add("gc.pause_max_ms", max(pauses, default=0) / 1e6, "ms")
    add("trace.overhead_ratio", traced_round.wall_s / untraced_round.wall_s, "ratio")

    layers: dict[str, float] = {}
    for name, entry in spans.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_ms"]
    traced_ms = traced_round.raw_wall_s * 1e3
    layers["bench"] = traced_ms - sum(layers.values())
    for layer, ms in sorted(layers.items(), key=lambda item: -item[1]):
        report.notes.append(f"self time {layer:<12} {ms:10.1f} ms {100 * ms / traced_ms:5.1f}%")
    top = max((item for item in layers.items() if item[0] != "bench"), key=lambda item: item[1])
    report.notes.append(f"largest self-time layer: {top[0]}")


def _write_trace(report: Report, setup, traced) -> None:
    directory = WORK / "trace"
    stem = f"{report.workload}-seed{report.seed}"
    summary = {"workload": report.workload, "seed": report.seed,
               "metrics": {n: v for n, (v, _) in report.metrics.items()}}
    setup.write(directory, f"{stem}-setup", summary)
    paths = traced.write(directory, stem, summary)
    report.notes.append(f"trace written to {paths[0].relative_to(ROOT)}")


# -- command line --------------------------------------------------------------


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode not in (0, 1) or not lines:
            return completed.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def run_one(name: str, seed: int | None, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    seed = workload.default_seed if seed is None else seed
    runner = run_experiment if workload.is_experiment else run_stream
    report = runner(workload, seed, seconds, trace)
    report.print()
    return 0 if not report.problems else 1
