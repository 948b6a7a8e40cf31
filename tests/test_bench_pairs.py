"""``tools/bench_pairs.py`` on canned result lines and scratch git repositories; no benchmark is run."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

GATES = {"events_per_s": ("higher", 0.2), "wall_s": ("lower", 0.2)}


def result(events_per_s, wall_s, *, correct=True, failed=0, workload="churn-evict", extra=None):
    metrics = {
        f"{workload}/events_per_s": {"value": events_per_s, "unit": "1/s"},
        f"{workload}/wall_s": {"value": wall_s, "unit": "s"},
    }
    for name, value in (extra or {}).items():
        metrics[f"{workload}/{name}"] = {"value": value, "unit": "B"}
    return {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}


def stdout_of(line: dict) -> str:
    return "workload churn-evict seed 7\n  events_per_s 1\n" + json.dumps(line) + "\n"


class TestCompare:
    def test_medians_spread_and_wins(self):
        parent = [result(100, 1.0), result(110, 1.0), result(90, 1.2), result(100, 0.9)]
        change = [result(120, 1.0), result(100, 0.8), result(95, 1.2), result(130, 1.0)]
        rows, problems = bench_pairs.compare(parent, change, GATES)
        assert problems == []
        by_metric = {row["metric"]: row for row in rows}
        speed = by_metric["churn-evict/events_per_s"]
        assert (speed["parent"], speed["change"]) == (100, 110)
        assert speed["parent_iqr"] == pytest.approx(102.5 - 97.5)
        assert speed["change_iqr"] == pytest.approx(122.5 - 98.75)
        assert (speed["change_wins"], speed["parent_wins"]) == (3, 1)
        wall = by_metric["churn-evict/wall_s"]
        # lower is better for wall_s; the pairs with equal values count for neither side
        assert (wall["change_wins"], wall["parent_wins"]) == (1, 1)
        assert speed["over_bound"] is False and wall["over_bound"] is False

    def test_worse_than_bound_is_flagged(self):
        rows, _ = bench_pairs.compare([result(100, 1.0)], [result(79, 1.19)], GATES)
        flags = {row["metric"]: row["over_bound"] for row in rows}
        assert flags == {"churn-evict/events_per_s": True, "churn-evict/wall_s": False}

    def test_ungated_metric_has_no_wins(self):
        rows, _ = bench_pairs.compare(
            [result(100, 1.0, extra={"policies.bytes_per_slot": 300})],
            [result(100, 1.0, extra={"policies.bytes_per_slot": 250})],
            GATES,
        )
        row = next(r for r in rows if r["metric"].endswith("bytes_per_slot"))
        assert (row["parent"], row["change"], row["change_wins"], row["over_bound"]) == (300, 250, None, None)

    def verdicts(self, parent_speeds, change_speeds):
        rows, _ = bench_pairs.compare(
            [result(v, 1.0) for v in parent_speeds], [result(v, 1.0) for v in change_speeds], GATES
        )
        return {row["metric"]: row["verdict"] for row in rows}

    def test_gain_needs_nine_in_ten_wins_beyond_the_parents_spread(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        assert self.verdicts(parent, [v + 10 for v in parent])["churn-evict/events_per_s"] == "gain"
        # eight wins in ten: within bound, not a gain
        change = [v + 10 for v in parent[:8]] + [v - 1 for v in parent[8:]]
        assert self.verdicts(parent, change)["churn-evict/events_per_s"] == "within bound"

    def test_gain_must_move_the_median_by_more_than_one_percent(self):
        gated = {**GATES, "peak_heap_mb": ("lower", 0.15)}

        def heap_verdict(parent_heap, change_heap):
            # the parent's runs spread by a few bytes, as a heap peak does
            parent = [result(100, 1.0, extra={"peak_heap_mb": parent_heap + i * 1e-7}) for i in range(10)]
            change = [result(100, 1.0, extra={"peak_heap_mb": change_heap}) for _ in range(10)]
            rows, _ = bench_pairs.compare(parent, change, gated)
            row = next(r for r in rows if r["metric"].endswith("peak_heap_mb"))
            assert (row["change_wins"], row["parent_wins"]) == (10, 0)
            return row["verdict"]

        # 60 bytes of 457 kB: every pair won and beyond the parent's IQR, but not a gain
        assert heap_verdict(0.456926, 0.456866) == "within bound"
        assert heap_verdict(1.255, 0.967) == "gain"

    def test_worse_than_bound(self):
        assert self.verdicts([100, 100], [70, 70])["churn-evict/events_per_s"] == "worse"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60, 140, 70, 130]
        assert self.verdicts(parent, [65, 135, 72, 128])["churn-evict/events_per_s"] == "unresolved"
        # unless every change run beats every parent run
        assert self.verdicts(parent, [150, 160, 145, 155])["churn-evict/events_per_s"] == "within bound"

    def test_consistent_small_loss_inside_the_bound_is_within_bound(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        verdicts = self.verdicts(parent, [v * 0.97 for v in parent])
        assert verdicts == {"churn-evict/events_per_s": "within bound", "churn-evict/wall_s": "within bound"}

    def test_incorrect_run_and_rise_in_failed_are_problems(self):
        parent = [result(100, 1.0), result(100, 1.0, failed=2)]
        change = [result(100, 1.0, correct=False), result(100, 1.0, failed=3)]
        _, problems = bench_pairs.compare(parent, change, GATES)
        assert len(problems) == 2
        assert "correct" in problems[0] and "failed 3 events" in problems[1]

    def test_fewer_failures_are_not_a_problem(self):
        _, problems = bench_pairs.compare([result(1, 1, failed=3)], [result(1, 1, failed=0)], GATES)
        assert problems == []


def test_last_json_line_skips_trailing_text():
    line = result(1, 2)
    assert bench_pairs.last_json_line(stdout_of(line) + "\n") == line
    with pytest.raises(ValueError):
        bench_pairs.last_json_line("no result\n")


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    parent = tmp_path / "parent"
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "run.py").write_text("")
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "CHANGE", change)
    monkeypatch.setattr(bench_pairs, "revision", lambda checkout: ("sha-" + checkout.name, "tree-" + checkout.name))
    return parent, change


def fake_runs(monkeypatch, lines):
    """Serve canned stdout per checkout and record the order of the runs."""
    calls = []

    def run_bench(checkout, seconds, trace, seed=None):
        calls.append((checkout.name, seconds, trace))
        return stdout_of(lines[checkout.name, trace])

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    return calls


def test_main_alternates_sides_and_appends_entries(checkouts, monkeypatch, capsys):
    parent, change = checkouts
    (change / "BENCH_churn-evict.json").write_text(json.dumps({"workload": "churn-evict", "how": "x", "entries": [{}]}))
    calls = fake_runs(monkeypatch, {
        ("parent", False): result(100, 1.0),
        ("change", False): result(110, 0.9),
        ("parent", True): result(1, 1, extra={"policies.bytes_per_slot": 314.4}),
        ("change", True): result(1, 1, extra={"policies.bytes_per_slot": 300.0}),
    })
    assert bench_pairs.main(["--parent", str(parent), "--pairs", "3", "--seconds", "2"]) == 0
    assert calls == [(name, 2.0, False) for name in ("parent", "change", "change", "parent", "parent", "change")]
    assert "churn-evict/events_per_s" in capsys.readouterr().out
    calls.clear()
    assert bench_pairs.main(["--parent", str(parent), "--append"]) == 0
    assert calls == [("parent", 5, True), ("change", 5, True)]
    out = capsys.readouterr().out
    assert "churn-evict/events_per_s" in out and "3/0" in out
    trajectory = json.loads((change / "BENCH_churn-evict.json").read_text())
    assert trajectory["how"] == "x"
    old, parent_entry, change_entry = trajectory["entries"]
    assert parent_entry["label"] == "parent" and change_entry["label"] == "change"
    assert parent_entry["git_sha"] == "sha-parent" and parent_entry["child_of"] is None
    assert change_entry["child_of"] == "sha-parent" and change_entry["src_tree"] == "tree-change"
    assert (parent_entry["runs"], parent_entry["seconds"]) == (3, 2.0)
    assert parent_entry["medians"] == {"events_per_s": 100, "wall_s": 1.0}
    assert change_entry["medians"] == {"events_per_s": 110, "wall_s": 0.9}
    assert (parent_entry["policies.bytes_per_slot"], change_entry["policies.bytes_per_slot"]) == (314.4, 300.0)


def test_main_exits_1_on_a_problem_and_appends_nothing_without_the_flag(checkouts, monkeypatch, capsys):
    parent, change = checkouts
    fake_runs(monkeypatch, {
        ("parent", False): result(100, 1.0),
        ("change", False): result(100, 1.0, correct=False),
    })
    assert bench_pairs.main(["--parent", str(parent), "--pairs", "1"]) == 1
    assert "PROBLEM" in capsys.readouterr().out
    assert not list(change.glob("BENCH_*.json"))


def record_commands(monkeypatch, line, by_checkout=None):
    """Answer every subprocess with ``line`` as a benchmark's stdout, recording the commands.

    ``by_checkout`` maps a checkout's directory name to the line its runs print instead.
    """
    commands = []

    def run(command, **kwargs):
        commands.append(command)
        answer = (by_checkout or {}).get(Path(kwargs["cwd"]).name, line)
        return subprocess.CompletedProcess(command, 0, stdout=stdout_of(answer))

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    return commands


@pytest.mark.parametrize("seed_args", [[], ["--seed", "2"]], ids=["default", "seed-2"])
def test_seed_reaches_every_run(checkouts, monkeypatch, seed_args):
    parent, _ = checkouts
    commands = record_commands(monkeypatch, result(100, 1.0))
    assert bench_pairs.main(["--parent", str(parent), "--pairs", "2", *seed_args]) == 0
    assert len(commands) == 4
    for command in commands:
        assert command[1] == "bench/run.py"
        if seed_args:
            assert command[-2:] == seed_args
        else:
            assert "--seed" not in command


def test_every_run_is_kept_in_the_checkout(checkouts, monkeypatch, capsys):
    parent, change = checkouts
    lines = {"parent": result(100, 1.0), "change": result(120, 0.8)}
    record_commands(monkeypatch, None, by_checkout=lines)
    assert bench_pairs.main(["--parent", str(parent), "--pairs", "3", "--seconds", "2", "--seed", "4"]) == 0
    path = change / ".bench_build" / "bench_pairs.json"
    assert str(path) in capsys.readouterr().out
    runs = json.loads(path.read_text())
    assert (runs["seconds"], runs["seed"]) == (2.0, 4)
    assert runs["pairs"] == [lines] * 3


def test_append_refuses_a_seed(checkouts, monkeypatch, capsys):
    parent, change = checkouts
    commands = record_commands(monkeypatch, result(100, 1.0))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(parent), "--seed", "2", "--append"])
    assert exit_info.value.code == 2
    assert "--append" in capsys.readouterr().err
    assert commands == [] and not list(change.glob("BENCH_*.json"))


def write_kept_runs(change, pairs, *, seed=None, revisions=None):
    runs = {
        "seconds": 15.0,
        "seed": seed,
        "revisions": revisions or {"parent": ["sha-parent", "tree-parent"], "change": ["sha-change", "tree-change"]},
        "pairs": [{"parent": p, "change": c} for p, c in pairs],
    }
    (change / ".bench_build").mkdir()
    (change / ".bench_build" / "bench_pairs.json").write_text(json.dumps(runs))


def test_append_runs_no_pair_and_takes_the_medians_of_the_kept_runs(checkouts, monkeypatch, capsys):
    parent, change = checkouts
    write_kept_runs(change, [(result(100, 1.0), result(120, 0.8)), (result(90, 1.2), result(110, 0.9))])
    calls = fake_runs(monkeypatch, {
        ("parent", True): result(1, 1, extra={"policies.bytes_per_slot": 230.0}),
        ("change", True): result(1, 1, extra={"policies.bytes_per_slot": 229.0}),
    })
    assert bench_pairs.main(["--parent", str(parent), "--pairs", "10", "--append"]) == 0
    assert [trace for _, _, trace in calls] == [True, True]
    assert "2 pairs" in capsys.readouterr().out
    _, change_entry = json.loads((change / "BENCH_churn-evict.json").read_text())["entries"]
    assert (change_entry["runs"], change_entry["seconds"]) == (2, 15.0)
    assert change_entry["medians"] == {"events_per_s": 115, "wall_s": pytest.approx(0.85)}


@pytest.mark.parametrize(
    "kept, message",
    [
        ({"seed": 2}, "recorded with --seed 2"),
        ({"revisions": {"parent": ["sha-parent", "tree-parent"], "change": [None, "tree-older"]}}, "other code"),
        (None, "does not exist"),
    ],
    ids=["seeded", "other-code", "missing"],
)
def test_append_refuses_runs_it_cannot_record(checkouts, monkeypatch, capsys, kept, message):
    parent, change = checkouts
    if kept is not None:
        write_kept_runs(change, [(result(100, 1.0), result(120, 0.8))], **kept)
    calls = fake_runs(monkeypatch, {})
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--parent", str(parent), "--append"])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert calls == [] and not list(change.glob("BENCH_*.json"))


def test_a_plain_copy_gets_the_src_tree_of_the_commit_it_copies(tmp_path, monkeypatch, capsys):
    repository = tmp_path / "repository"
    (repository / "src" / "pkg").mkdir(parents=True)
    (repository / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    (repository / "README").write_text("not in src\n")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repository,
                              check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "src")
    plain = tmp_path / "plain"
    shutil.copytree(repository / "src", plain / "src")
    monkeypatch.setattr(bench_pairs, "CHANGE", repository)

    assert bench_pairs.revision(plain) == (None, git("rev-parse", "HEAD:src"))
    assert "git_sha is unknown" in capsys.readouterr().err
    assert bench_pairs.revision(repository) == (git("rev-parse", "HEAD"), git("rev-parse", "HEAD:src"))
    assert git("status", "--porcelain") == ""
