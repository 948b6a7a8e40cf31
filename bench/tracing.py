"""Per-layer tracing of streamcc from outside the package.

The tracer wraps public functions and methods of each streamcc module.
A function is replaced under every name a streamcc module looks it up by
(``policies`` imports ``extend_model_semantics``,
``shortest_path_prefix_alignment`` and ``truncate_states`` by name), and
``ConformanceEngine.stored_state_count`` is wrapped as a property. Spans
(name, start, end, parent) are kept in memory as flat arrays and written
out only when the run ends. Calls too frequent for a span each (the Petri
net semantics, the summary repository) are counted instead, keyed by the
innermost open span. Garbage collections are recorded next to the spans.
"""

from __future__ import annotations

import functools
import gc
import gzip
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

from streamcc import alignment, evaluation, petri, pnml, policies, streams, synthetic

MODULES = (alignment, evaluation, petri, pnml, policies, streams, synthetic)

# (function, span name); each is wrapped wherever a streamcc module names it.
SPANNED_FUNCTIONS = (
    (alignment.extend_model_semantics, "alignment.extend"),
    (alignment.shortest_path_prefix_alignment, "alignment.search"),
    (policies.truncate_states, "policies.truncate_states"),
    (pnml.load_model, "pnml.load_model"),
    (streams.parse_csv_log, "streams.parse_csv_log"),
    (synthetic.generate_log, "synthetic.generate_log"),
    (evaluation.run_experiment, "evaluation.run_experiment"),
    (evaluation.load_experiment_inputs, "evaluation.load_experiment_inputs"),
    (evaluation.evaluate_policies, "evaluation.evaluate_policies"),
    (evaluation.reference_costs, "evaluation.reference_costs"),
    (evaluation.rmse, "evaluation.rmse"),
    (evaluation.f1, "evaluation.f1"),
)

COUNTED_METHODS = (
    (petri.PetriNet, "fire", "petri.fire"),
    (petri.PetriNet, "enabled_transitions", "petri.enabled_transitions"),
    (petri.PetriNet, "is_enabled", "petri.is_enabled"),
    (policies.SummaryRepository, "put", "policies.repo_put"),
)


class Tracer:
    """Installs wrappers, records spans and counters, and removes the wrappers again."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: list[int] = []
        self._open_names: list[str] = []
        self.counts: Counter[tuple[str, str]] = Counter()
        self.sums: Counter[str] = Counter()
        self.store_cases_peak = 0
        self._engine = None
        self._repo_final: list[int] = []
        self.gc_events: list[tuple[int, int, int]] = []
        self._gc_started = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int, name: str) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0)
        self._stack.append(index)
        self._open_names.append(name)
        self.span_start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()
        self._open_names.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, fn, name: str, after=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name_id, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts
        open_names = self._open_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, open_names[-1] if open_names else ""] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def _patch_everywhere(self, fn, replacement) -> None:
        for module in MODULES:
            for attribute, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attribute, replacement)

    def install(self) -> None:
        after = {
            "alignment.extend": self._after_extend,
            "alignment.search": self._after_search,
        }
        for fn, name in SPANNED_FUNCTIONS:
            self._patch_everywhere(fn, self._spanned(fn, name, after.get(name)))
        # replay is a generator: consume it inside the span so the span
        # covers the ordering work rather than only creating the generator
        replay = streams.replay
        eager = self._spanned(lambda *a, **k: list(replay(*a, **k)), "streams.replay")
        self._patch_everywhere(replay, functools.wraps(replay)(lambda *a, **k: iter(eager(*a, **k))))

        engine = policies.ConformanceEngine
        self._patch(engine, "process", self._spanned(engine.process, "policies.process", self._after_process))
        gauge = engine.__dict__["stored_state_count"]
        self._patch(
            engine,
            "stored_state_count",
            property(self._spanned(gauge.fget, "policies.stored_state_count")),
        )
        for owner, attribute, name in COUNTED_METHODS:
            self._patch(owner, attribute, self._counted(owner.__dict__[attribute], name))
        repo_pop = policies.SummaryRepository.pop

        def pop(repo, case_id):
            summary = repo_pop(repo, case_id)
            if summary is not None:
                self.sums["policies.resumptions"] += 1
            return summary

        self._patch(policies.SummaryRepository, "pop", pop)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters read from results ------------------------------------------

    def _after_extend(self, args, result) -> None:
        if result is not None:
            self.sums["extend.hits"] += 1

    def _after_search(self, args, result) -> None:
        self.sums["search.trace_len"] += len(args[2])
        self.sums["search.moves"] += len(result.states)

    def _after_process(self, args, result) -> None:
        engine = args[0]
        self.store_cases_peak = max(self.store_cases_peak, len(engine.store))
        # engines run one after another, so a new engine ends the previous one
        if engine is not self._engine:
            self._engine = engine
            self._repo_final.append(0)
        self._repo_final[-1] = len(engine.repo)

    @property
    def repo_summaries_final(self) -> int:
        """Largest summary repository any engine held after its last event."""
        return max(self._repo_final, default=0)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_started = now
        else:
            self.gc_events.append((info["generation"], self._gc_started, now))

    # -- results -------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in ms.

        Self time is a span's duration minus the time its child spans cover.
        """
        children_ns = defaultdict(int)
        for index in range(len(self.span_start)):
            parent = self.span_parent[index]
            if parent >= 0:
                children_ns[parent] += self.span_end[index] - self.span_start[index]
        totals: dict[str, dict[str, float]] = {}
        for index in range(len(self.span_start)):
            name = self.names[self.span_name[index]]
            entry = totals.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = self.span_end[index] - self.span_start[index]
            entry["calls"] += 1
            entry["total_ms"] += duration / 1e6
            entry["self_ms"] += (duration - children_ns[index]) / 1e6
        return totals

    def count(self, name: str, within: str | None = None) -> int:
        return sum(n for (counter, parent), n in self.counts.items()
                   if counter == name and (within is None or parent == within))

    def write(self, directory: Path, stem: str, summary: dict) -> list[Path]:
        """Write the spans (gzipped CSV) and a JSON summary with the gc events."""
        directory.mkdir(parents=True, exist_ok=True)
        spans_path = directory / f"{stem}.spans.csv.gz"
        with gzip.open(spans_path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent\n")
            for index in range(len(self.span_start)):
                handle.write(
                    f"{self.names[self.span_name[index]]},{self.span_start[index]},"
                    f"{self.span_end[index]},{self.span_parent[index]}\n"
                )
        summary_path = directory / f"{stem}.json"
        payload = dict(summary)
        payload["counters"] = {f"{c}@{p or 'root'}": n for (c, p), n in sorted(self.counts.items())}
        payload["gc_events"] = [
            {"generation": g, "start_ns": s, "end_ns": e} for g, s, e in self.gc_events
        ]
        payload["python"] = sys.version.split()[0]
        summary_path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        return [spans_path, summary_path]
