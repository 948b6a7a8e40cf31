"""``tools/gates.py``'s checks on canned result lines; no benchmark is run."""

from __future__ import annotations

import csv
import gzip
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("gates", ROOT / "tools" / "gates.py")
gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gates)


def stdout_of(workload: str, *, correct=True, failed=0, counts=None, bytes_per_slot=60.0) -> str:
    counts = gates.PINS[workload] if counts is None else counts
    metrics = {metric: {"value": float(value), "unit": "count"} for metric, value in zip(gates.COUNTS, counts)}
    metrics["policies.bytes_per_slot"] = {"value": bytes_per_slot, "unit": "B"}
    line = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    return f"workload {workload} seed 1\n  events_failed_share 0\n{json.dumps(line)}\n"


@pytest.mark.parametrize("workload", sorted(gates.PINS))
def test_pinned_counts_pass(workload):
    assert gates.check(workload, 0, stdout_of(workload), (3, 11)) == []


def test_correctness_run_passes_without_counts():
    line = json.dumps({"correct": True, "attempted": 400, "failed": 0, "metrics": {}})
    assert gates.check("all at seed 2", 0, f"workload churn-evict seed 2\n{line}\n") == []


@pytest.mark.parametrize("index", range(len(gates.COUNTS)))
def test_a_count_off_by_one(index):
    counts = list(gates.PINS["experiment-example"])
    counts[index] += 1
    problems = gates.check("experiment-example", 0, stdout_of("experiment-example", counts=counts))
    assert problems == [f"experiment-example: {gates.COUNTS[index]}: {counts[index]}, "
                        f"pinned at {counts[index] - 1}"]


def test_a_non_zero_exit_code():
    problems = gates.check("churn-evict", 1, stdout_of("churn-evict"), (3, 11))
    assert problems == ["churn-evict: exit code: 1"]


def test_a_missing_result_line():
    problems = gates.check("long-traces", 0, "workload long-traces seed 1\n  4809 events\n")
    assert problems == ["long-traces: result line: none printed"]


def test_a_failed_event_and_an_incorrect_run():
    problems = gates.check("all at the default seeds", 1,
                           stdout_of("churn-evict", correct=False, failed=1))
    assert problems == ["all at the default seeds: exit code: 1", "all at the default seeds: correct: False",
                        "all at the default seeds: failed: 1 events"]


def test_a_missing_count_fails_its_pin():
    line = json.dumps({"correct": True, "attempted": 4500, "failed": 0, "metrics": {}})
    problems = gates.check("parallel-alien", 0, line, (3, 12))
    assert [problem.split(": ")[1] for problem in problems] == list(gates.COUNTS)


@pytest.mark.parametrize("version, expected", [
    ((3, 11), ["long-traces: policies.bytes_per_slot: 80.5 B, over 80"]),
    ((3, 10), []), ((3, 12), []), ((3, 13), []),
])
def test_a_byte_bound_is_checked_on_3_11_only(version, expected):
    assert gates.check("long-traces", 0, stdout_of("long-traces", bytes_per_slot=80.5), version) == expected


def test_churn_evict_has_no_byte_bound():
    assert gates.check("churn-evict", 0, stdout_of("churn-evict", bytes_per_slot=500.0), (3, 11)) == []


@pytest.mark.parametrize("names, expected", [
    (["pnml.load_model", "streams.parse_csv_log"], []),
    (["streams.parse_csv_log", "streams.parse_csv_log"],
     ["churn-evict: streams.parse_csv_log spans: 2, not 1"]),
    ([], ["churn-evict: streams.parse_csv_log spans: 0, not 1"]),
])
def test_parse_spans(tmp_path, names, expected):
    path = tmp_path / "churn-evict-seed1-setup.spans.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "start_ms", "self_ms"])
        writer.writerows([name, 0, 1] for name in names)
    assert gates.parse_span_problems(path) == expected


def test_missing_spans_file(tmp_path):
    (problem,) = gates.parse_span_problems(tmp_path / "absent.spans.csv.gz")
    assert problem.startswith("churn-evict: streams.parse_csv_log spans: ")
