#!/usr/bin/env python3
"""Check the benchmark gates: the runs whose results define "the same work".

Run from anywhere, with no options:

    python3 tools/gates.py

It runs this checkout's ``bench/run.py``: ``--workload all --seconds 1`` at
the default seeds and at ``--seed 2``, then ``--trace 1 --seconds 1`` once
per workload at its default seed. Every run must exit 0, and its last
result line must read ``"correct": true`` with ``"failed": 0``; for the
all-workload runs that line is the AND and the sum over the workloads. A
traced run's counts must equal its row of ``PINS``. On CPython 3.11 its
``policies.bytes_per_slot`` must stay within ``BYTES_PER_SLOT``: object
sizes differ between Python versions, so one version checks. The script
prints each workload's counts and every gate that failed, and exits 1 if
any did. Standard library only.
"""

from __future__ import annotations

import csv
import gzip
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAN = float("nan")
COUNTS = ("alignment.search_calls", "alignment.search_expansions", "alignment.extend_calls",
          "policies.truncate_calls", "policies.evictions", "policies.resumptions")
READ = (*COUNTS, "policies.bytes_per_slot")

# Each workload's counts at its default seed, in the order of COUNTS. The engine
# may get faster, not search, expand, extend, truncate, evict or resume more or
# less often, and a search may not expand other nodes.
PINS = {
    # trace mode is the only run that patches the names bench/ wraps
    # (SummaryRepository.put and pop among them), so evictions, resumptions and
    # expansions are not 0; the extension truncates as it appends, so only
    # search events call truncate_states: truncations equal searches
    "churn-evict": (1058, 2785, 20155, 1058, 14177, 12277),
    # the only benchmark net with silent transitions: its searches push silent
    # moves through the same block as model moves; every event tries the
    # extension once, and the extension is not inlined away
    "parallel-alien": (372, 1985, 4500, 0, 0, 0),
    # the shipped experiment's 36 policy runs
    "experiment-example": (7913, 38452, 148000, 6345, 15699, 12099),
    "long-traces": (54, 30633, 4809, 0, 0, 0),
}

BYTES_PER_SLOT = {
    # the synchronous-step table is keyed by label, then by marking; one flat
    # dict keyed by (marking, activity) read 228.4 B
    "parallel-alien": 205,
    # a case record holds only its id and its alignment; with its last update
    # and rank as well, this read 66.4 B
    "experiment-example": 64,
    # a stored slot holds a step the net shares; a step per event, carrying its
    # event's ref, read 137 B
    "long-traces": 80,
}

# the set-up parses the log once, and parse_csv_log reads the file's handle
# without calling itself, so the tracer records one span
PARSE_SPANS = ROOT / ".bench_build/streamcc/trace/churn-evict-seed1-setup.spans.csv.gz"

# the default seeds check the recorded digests; seed 2, which no digest pins,
# still runs the bound, optimality and worst-run checks
RUNS = {
    "all at the default seeds": ["--workload", "all", "--seconds", "1"],
    "all at seed 2": ["--workload", "all", "--seconds", "1", "--seed", "2"],
    **{name: ["--workload", name, "--trace", "1", "--seconds", "1"] for name in PINS},
}


def check(name: str, returncode: int, stdout: str, version=sys.version_info[:2]) -> list[str]:
    """The gates that run ``name`` fails, each as ``"<name>: <gate>: <what was read>"``."""
    problems = [f"{name}: exit code: {returncode}"] if returncode else []
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if not lines:
        return problems + [f"{name}: result line: none printed"]
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        problems.append(f"{name}: correct: {result.get('correct')}")
    if result.get("failed") != 0:
        problems.append(f"{name}: failed: {result.get('failed')} events")
    values = {metric: entry["value"] for metric, entry in result.get("metrics", {}).items()}
    read = [values.get(metric, NAN) for metric in READ]
    for metric, value, pinned in zip(COUNTS, read, PINS.get(name, ())):
        if value != pinned:
            problems.append(f"{name}: {metric}: {value:g}, pinned at {pinned}")
    limit = BYTES_PER_SLOT.get(name)
    if limit is not None and version == (3, 11) and not read[-1] <= limit:
        problems.append(f"{name}: policies.bytes_per_slot: {read[-1]:g} B, over {limit}")
    if name in PINS:
        print(f"{name}: " + ", ".join(f"{metric} {value:g}" for metric, value in zip(READ, read)))
    return problems


def parse_span_problems(path: Path = PARSE_SPANS) -> list[str]:
    """churn-evict's set-up must hold exactly one ``streams.parse_csv_log`` span."""
    try:
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            parses = sum(row["name"] == "streams.parse_csv_log" for row in csv.DictReader(handle))
    except OSError as exc:
        return [f"churn-evict: streams.parse_csv_log spans: {exc}"]
    return [] if parses == 1 else [f"churn-evict: streams.parse_csv_log spans: {parses}, not 1"]


def main() -> int:
    problems = []
    PARSE_SPANS.unlink(missing_ok=True)
    for name, args in RUNS.items():
        completed = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), *args], cwd=ROOT,
                                   stdout=subprocess.PIPE, text=True, check=False)
        found = check(name, completed.returncode, completed.stdout)
        if name == "churn-evict":
            found += parse_span_problems()
        if found:
            print(completed.stdout)
        print(f"{name}: {len(found)} gates failed" if found else f"{name}: every gate holds", flush=True)
        problems += found
    print("\n".join(["gates failed:", *problems] if problems else ["every gate holds"]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
