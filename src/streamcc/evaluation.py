"""Experiment harness: policies vs the infinite-memory baseline.

A reference pass records the baseline's effective cost at every arrival
index; each policy then replays the same stream and is compared per
event window. Window statistics cover the cases touched in the window,
each at its last event of the window, so both engines are compared at
identical arrival indices.
"""

from __future__ import annotations

import json
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import __version__
from .alignment import DEFAULT_COST_MODEL, DEFAULT_SEARCH_BUDGET, CostModel, check_search_budget
from .errors import EmptyWindow, ParseError, SearchBudgetExceeded, TimestampError, check_int
from .petri import PetriNet
from .pnml import json_int, load_model
from .policies import ConformanceEngine, Policy, PolicyConfig
from .streams import StreamEvent, parse_timestamp, read_log, replay, replicate_events
from .synthetic import StreamSpec, generate_log

COMPARISON_NOTE = (
    "per window: cases touched in the window, each at its last event of the "
    "window; policy and baseline compared at identical arrival indices"
)


def rmse(pairs: Iterable[tuple[float, float]]) -> float:
    """Root-mean-square difference between paired policy and baseline costs."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyWindow("rmse over an empty window")
    return math.sqrt(sum((a - b) ** 2 for a, b in pairs) / len(pairs))


def f1(pairs: Iterable[tuple[bool, bool]]) -> float:
    """F1 of non-conformance labels, baseline as ground truth.

    Pairs are (policy says non-conformant, baseline says non-conformant).
    When neither actual nor predicted positives exist the score is 1 by
    convention.
    """
    pairs = list(pairs)
    if not pairs:
        raise EmptyWindow("f1 over an empty window")
    tp = sum(1 for p, b in pairs if p and b)
    fp = sum(1 for p, b in pairs if p and not b)
    fn = sum(1 for p, b in pairs if not p and b)
    denominator = 2 * tp + fp + fn
    if denominator == 0:
        return 1.0
    return 2 * tp / denominator


@dataclass(frozen=True)
class WindowStats:
    window_index: int
    events_in_window: int
    max_stored_states: int
    rmse_fitness: float
    f1_classification: float
    apte_us: float


@dataclass(frozen=True)
class PolicyRun:
    config: PolicyConfig
    windows: tuple[WindowStats, ...]
    search_count: int
    extension_count: int
    error: str | None = None

    @property
    def label(self) -> str:
        return self.config.label


@dataclass(frozen=True)
class ExperimentResult:
    runs: tuple[PolicyRun, ...]
    events_total: int
    window_size: int
    replication: int


def reference_costs(
    net: PetriNet,
    events: Sequence[StreamEvent],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[float]:
    """Baseline effective cost after processing each event, by arrival index."""
    engine = ConformanceEngine(
        net, PolicyConfig(Policy.BASELINE, cost_model=cost_model), search_budget=search_budget
    )
    # no event ref: no result reads the refs an alignment keeps
    return [engine.process(ev.case_id, ev.activity).effective_cost for ev in events]


def _measured_pass(
    net: PetriNet,
    events: Sequence[StreamEvent],
    ref_costs: Sequence[float],
    window_size: int,
    search_budget: int,
    replication: int,
    config: PolicyConfig,
) -> PolicyRun:
    """Replay the k-fold replicated stream once, in one engine.

    Costs, stored-slot peaks and search/extension counts come from the
    first copy, which is ``events`` itself; each window's APTE is the
    mean per-event processing time over every copy of that window.
    Only the windows whose first copy completed are reported.

    The first copy runs window by window: per event it reads the clock
    twice around ``process`` and keeps the cost and the slot peak, and
    it writes each window's time, timed count and peak once. Later
    copies only add each event's time to its window. ``process`` gets no
    event ref, because nothing reads the refs an alignment keeps, and a
    fresh int per event would live as long as its stored move.
    """
    engine = ConformanceEngine(net, config, search_budget=search_budget)
    process = engine.process
    clock = time.perf_counter_ns
    length = len(events)
    costs: list[float] = []  # first copy's effective cost per event
    append_cost = costs.append
    peaks = [0] * math.ceil(length / window_size)  # first copy's peak stored slots per window
    window_ns = [0] * len(peaks)  # processing time per window, all copies
    window_timed = [0] * len(peaks)  # events timed per window, all copies
    counts: tuple[int, int] | None = None
    error: str | None = None
    try:
        for window, start in enumerate(range(0, length, window_size)):
            stop = min(start + window_size, length)
            elapsed = peak = 0
            for index in range(start, stop):
                event = events[index]
                started = clock()
                outcome = process(event.case_id, event.activity)
                elapsed += clock() - started
                append_cost(outcome.effective_cost)
                slots = engine.stored_state_count
                if slots > peak:
                    peak = slots
            window_ns[window] = elapsed
            window_timed[window] = stop - start
            peaks[window] = peak
        counts = (engine.search_count, engine.extension_count)
        if replication > 1:
            copies = islice(replicate_events(events, replication), length, None)
            for index, event in enumerate(copies, length):
                window = index % length // window_size
                started = clock()
                process(event.case_id, event.activity)
                window_ns[window] += clock() - started
                window_timed[window] += 1
    except SearchBudgetExceeded as exc:
        error = str(exc)

    windows = tuple(
        WindowStats(i, count, peaks[i], rmse_value, f1_value, window_ns[i] / window_timed[i] / 1000.0)
        for i, (count, rmse_value, f1_value) in enumerate(
            _window_scores(events, costs, ref_costs, window_size)
        )
    )
    search_count, extension_count = counts or (engine.search_count, engine.extension_count)
    return PolicyRun(config, windows, search_count, extension_count, error)


def _window_scores(
    events: Sequence[StreamEvent], costs: list[float], ref_costs: Sequence[float], window_size: int
) -> Iterator[tuple[int, float, float]]:
    """Events, RMSE and F1 of each window that ``costs`` cover in full.

    A window compares the cases it touches, each at its last event in it.
    """
    for start in range(0, len(costs), window_size):
        end = min(start + window_size, len(events))
        if end > len(costs):
            return
        last = {events[i].case_id: i for i in range(start, end)}
        pairs = [(costs[i], ref_costs[i]) for i in last.values()]
        yield end - start, rmse(pairs), f1([(p > 0, b > 0) for p, b in pairs])


def evaluate_policies(
    net: PetriNet,
    events: Sequence[StreamEvent],
    policies: Sequence[PolicyConfig],
    *,
    window_size: int = 1000,
    replication: int = 1,
    search_budget: int = DEFAULT_SEARCH_BUDGET,
    reference_search_budget: int | None = None,
    jobs: int = 1,
) -> ExperimentResult:
    """Run every policy over the stream and compare it to the baseline.

    The policies must share one cost model, and the reference baseline
    uses it too. A policy run that exhausts its search budget is
    reported with its completed windows and an error; other policies are
    unaffected. A budget failure in the reference pass itself propagates
    (the reference defaults to ``search_budget`` unless given its own).
    """
    _check_run_settings(
        policies, window_size=window_size, replication=replication, search_budget=search_budget, jobs=jobs
    )
    events = list(events)
    if not events:
        raise ValueError("empty stream")
    reference_budget = search_budget if reference_search_budget is None else reference_search_budget
    refs = reference_costs(net, events, policies[0].cost_model, reference_budget)
    measure = partial(_measured_pass, net, events, refs, window_size, search_budget, replication)
    if jobs > 1 and len(policies) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            runs = tuple(pool.map(measure, policies))
    else:
        runs = tuple(map(measure, policies))
    return ExperimentResult(
        runs=runs, events_total=len(events), window_size=window_size, replication=replication
    )


def _check_run_settings(
    policies: Sequence[PolicyConfig], *, window_size: int, replication: int, search_budget: int, jobs: int = 1
) -> None:
    for name, value in (("window_size", window_size), ("replication", replication), ("jobs", jobs)):
        check_int(value, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    check_search_budget(search_budget)
    if not policies:
        raise ValueError("at least one policy is required")
    labels: set[str] = set()
    for config in policies:
        if config.label in labels:
            raise ValueError(f"policy {config.label!r} is listed twice; it writes one CSV")
        labels.add(config.label)
    if len({config.cost_model for config in policies}) > 1:
        raise ValueError("policies must share one cost model, the one the baseline reference uses")


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description (see README for the JSON format)."""

    model_path: Path
    policies: tuple[PolicyConfig, ...]
    log_path: Path | None = None
    synthetic: StreamSpec | None = None
    synthetic_seed: int = 0
    window_size: int = 1000
    replication: int = 1
    output_dir: Path = Path("streamcc-out")
    search_budget: int = DEFAULT_SEARCH_BUDGET

    def __post_init__(self) -> None:
        if (self.log_path is None) == (self.synthetic is None):
            raise ValueError("exactly one of 'log' and 'synthetic' must be given")
        _check_run_settings(
            self.policies,
            window_size=self.window_size,
            replication=self.replication,
            search_budget=self.search_budget,
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        base = Path(path).parent
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read experiment config {path}: {exc}") from exc
        try:
            values = _read_object(
                payload,
                "the config",
                {
                    "model": _json_string,
                    "log": _json_string,
                    "synthetic": _or_null(_stream_spec_from_json),
                    "policies": _json_policies,
                    "window_size": json_int,
                    "replication": json_int,
                    "search_budget": json_int,
                    "output_dir": _json_string,
                },
                required=("model",),
            )
            spec, seed = values.pop("synthetic", None) or (None, 0)
            return cls(
                # every path resolves against the config file, so a config
                # reads and writes the same files wherever it is run
                model_path=base / values.pop("model"),
                log_path=base / values.pop("log") if "log" in values else None,
                synthetic=spec,
                synthetic_seed=seed,
                policies=values.pop("policies", ()),
                output_dir=base / values.pop("output_dir", "streamcc-out"),
                **values,  # window_size, replication and search_budget, when given
            )
        except (TypeError, ValueError, ParseError) as exc:
            raise ParseError(f"invalid experiment config {path}: {exc}") from exc


Rule = Callable[[object, str], object]


def _read_object(
    value: object, where: str, rules: dict[str, Rule], prefix: str = "", required: tuple[str, ...] = ()
) -> dict:
    """Read a JSON object whose every key has a rule, each value by its key's rule.

    A key without a rule is rejected by name, never ignored, and so is a
    missing ``required`` key. ``where`` names the object in errors;
    ``prefix`` + key names a value.
    """
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object, not {value!r}")
    unknown = sorted(value.keys() - rules.keys())
    if unknown:
        raise ParseError(f"unknown keys {unknown} in {where}")
    for key in required:
        if key not in value:
            raise ParseError(f"missing key {key!r} in {where}")
    return {key: rules[key](item, prefix + key) for key, item in value.items()}


def _or_null(rule: Rule) -> Rule:
    """``rule``, with JSON ``null`` read as an absent value."""
    return lambda value, name: None if value is None else rule(value, name)


def _json_policies(value: object, name: str) -> tuple[PolicyConfig, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{name!r} must be a list of policy entries, not {value!r}")
    rules = {"policy": _json_policy, "w": _or_null(json_int), "n": _or_null(json_int)}
    return tuple(
        PolicyConfig(**_read_object(entry, "a policy entry", rules, required=("policy",))) for entry in value
    )


def _json_policy(value: object, name: str) -> Policy:
    try:
        return Policy(value)
    except ValueError as exc:
        names = ", ".join(p.value for p in Policy)
        raise ParseError(f"unknown policy {value!r}; valid names: {names}") from exc


def _stream_spec_from_json(value: object, name: str) -> tuple[StreamSpec, int]:
    """Read the ``synthetic`` block: ``seed`` plus StreamSpec fields, each checked by its type."""
    rules = {"seed": json_int} | {field.name: _SPEC_READERS[field.type] for field in fields(StreamSpec)}
    values = _read_object(value, f"{name!r}", rules, prefix=f"{name}.")
    seed = values.pop("seed", 0)
    return StreamSpec(**values), seed


def _json_string(value: object, name: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{name!r} must be a string, not {value!r}")
    return value


def _json_number(value: object, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{name!r} must be a number, not {value!r}")
    return float(value)


def _json_strings(value: object, name: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ParseError(f"{name!r} must be a list of strings, not {value!r}")
    return tuple(value)


def _json_timestamp(value: object, name: str) -> datetime:
    if isinstance(value, str):
        try:
            return parse_timestamp(value)
        except TimestampError:
            pass
    raise ParseError(f"{name!r} must be a log timestamp string, not {value!r}")


# JSON reader per StreamSpec field annotation
_SPEC_READERS = {
    "int": json_int,
    "float": _json_number,
    "tuple[str, ...]": _json_strings,
    "datetime": _json_timestamp,
}


def load_experiment_inputs(config: ExperimentConfig) -> tuple[PetriNet, list[StreamEvent]]:
    net = load_model(config.model_path)
    if config.log_path is not None:
        log = read_log(config.log_path)
    else:
        log = generate_log(config.synthetic, config.synthetic_seed)
    return net, list(replay(log))


def run_experiment(config: ExperimentConfig, *, jobs: int = 1) -> ExperimentResult:
    """Load the configured model and stream, evaluate every policy."""
    net, events = load_experiment_inputs(config)
    return evaluate_policies(
        net,
        events,
        config.policies,
        window_size=config.window_size,
        replication=config.replication,
        search_budget=config.search_budget,
        jobs=jobs,
    )


def write_results(
    result: ExperimentResult, output_dir: str | Path, config_echo: dict | None = None
) -> list[Path]:
    """Write one CSV per policy plus a JSON run manifest; returns the paths."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for run in result.runs:
        path = outdir / f"{run.label}.csv"
        lines = ["window,events,max_states,rmse,f1,apte_us"]
        for w in run.windows:
            lines.append(
                f"{w.window_index},{w.events_in_window},{w.max_stored_states},"
                f"{w.rmse_fitness:.6g},{w.f1_classification:.6g},{w.apte_us:.3f}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    manifest = {
        "config": config_echo or {},
        "events_total": result.events_total,
        "window_size": result.window_size,
        "replication": result.replication,
        "comparison": COMPARISON_NOTE,
        "policies": [
            {
                "label": run.label,
                "windows": len(run.windows),
                "search_count": run.search_count,
                "extension_count": run.extension_count,
                "error": run.error,
            }
            for run in result.runs
        ],
        "library_version": __version__,
        "environment": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    }
    manifest_path = outdir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    written.append(manifest_path)
    return written


def config_echo(config: ExperimentConfig) -> dict:
    payload = asdict(config)
    payload["model_path"] = str(config.model_path)
    payload["log_path"] = str(config.log_path) if config.log_path else None
    payload["output_dir"] = str(config.output_dir)
    payload["policies"] = [
        {"policy": p.policy.value, "w": p.w, "n": p.n} for p in config.policies
    ]
    if config.synthetic is not None:
        synthetic = asdict(config.synthetic)
        synthetic["start"] = config.synthetic.start.isoformat()
        synthetic["seed"] = config.synthetic_seed
        payload["synthetic"] = synthetic
    return payload
