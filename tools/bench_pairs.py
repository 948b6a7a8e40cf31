#!/usr/bin/env python3
"""Compare this checkout's benchmark against a parent checkout, in alternating pairs.

Run from anywhere:

    python3 tools/bench_pairs.py --parent ../parent-checkout [--pairs 10] [--seconds 15] [--seed N]
    python3 tools/bench_pairs.py --parent ../parent-checkout --append

Each pair runs ``bench/run.py --workload all --seconds S`` once in the
parent checkout and once in this one, each workload at its default seed,
or at seed N for every workload with ``--seed N``, so that a claim can be
checked again on a seed not used while writing the change. Even pairs run
the parent first, odd pairs the change first. Each run's result is the
last JSON line it prints, and every pair's two result lines are kept
in ``.bench_build/bench_pairs.json`` of this checkout. For every
``<workload>/<metric>`` the tool prints both medians, both sides' IQR
(the spread between their quartiles), the change's and the parent's
wins over the pairs (ties count for neither) and, for the metrics
``BENCHMARK.json`` gates, a verdict (see ``verdict``). It exits 1 when
any run reports ``"correct": false`` or the change fails more events
than the parent in any pair. Pointing ``--parent`` at a copy of this
checkout (an A/A run) shows how far two identical checkouts read apart
on the host.

``--append`` runs no pairs: it takes the medians from the runs kept in
``.bench_build/bench_pairs.json``, runs ``--workload all --trace 1
--seconds 5`` once per side for ``policies.bytes_per_slot``, and appends
a parent entry and a change entry to each ``BENCH_<workload>.json`` of
this checkout. The trajectories are recorded at each workload's default
seed, so ``--append`` refuses ``--seed`` and a runs file recorded with
one, and it refuses a runs file recorded from other code than the two
checkouts hold now. A parent that is not a git checkout (a ``git
archive`` export) gets its ``src`` tree hash from this checkout's
repository and no SHA, with a warning. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
BYTES_PER_SLOT = "policies.bytes_per_slot"
RUNS_FILE = Path(".bench_build") / "bench_pairs.json"  # under CHANGE
# Least share of the parent's median a gain must move the median by: a
# metric that barely varies between runs has an IQR of a few bytes.
GAIN_FLOOR = 0.01


def run_bench(checkout: Path, seconds: float, trace: bool, seed: int | None = None) -> str:
    """Standard output of one ``bench/run.py --workload all`` run in ``checkout``.

    ``seed`` None runs each workload at its default seed.
    """
    command = [sys.executable, "bench/run.py", "--workload", "all", "--seconds", str(seconds),
               "--trace", "1" if trace else "0"]
    if seed is not None:
        command += ["--seed", str(seed)]
    completed = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    return completed.stdout


def last_json_line(stdout: str) -> dict:
    for line in reversed(stdout.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("the benchmark printed no JSON result line")


def metric_values(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def gates(benchmark: dict) -> dict[str, tuple[str, float]]:
    """``metric -> (better, bound)`` for the end-to-end metrics of ``BENCHMARK.json``."""
    return {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}


def verdict(row: dict, parent_runs: list[float], change_runs: list[float], pairs: int,
            sign: int, bound: float) -> str:
    """How one gated metric reads; ``sign`` is 1 when higher is better, -1 when lower is.

    ``worse``: the change's median is worse than the parent's by more than
    the bound. ``gain``: the change wins at least nine tenths of the pairs
    and its median beats the parent's by more than the parent's IQR and by
    more than ``GAIN_FLOOR`` of the parent's median.
    ``unresolved``: the parent's IQR is wider than the bound allows and not
    every change run beats every parent run. Otherwise ``within bound``.
    """
    if row["over_bound"]:
        return "worse"
    margin = max(row["parent_iqr"], GAIN_FLOOR * abs(row["parent"]))
    beats_spread = sign * (row["change"] - row["parent"]) > margin
    if pairs and row["change_wins"] * 10 >= pairs * 9 and beats_spread:
        return "gain"
    separated = min(sign * v for v in change_runs) > max(sign * v for v in parent_runs)
    if row["parent_iqr"] > bound * abs(row["parent"]) and not separated:
        return "unresolved"
    return "within bound"


def compare(parent: list[dict], change: list[dict], gated: dict[str, tuple[str, float]]):
    """One row per ``<workload>/<metric>`` and the list of problems found.

    ``parent[i]`` and ``change[i]`` are the result lines of pair ``i``.
    """
    problems = []
    for side, results in (("parent", parent), ("change", change)):
        for i, result in enumerate(results):
            if not result["correct"]:
                problems.append(f"pair {i}: the {side} run printed \"correct\": false")
    for i, (p, c) in enumerate(zip(parent, change)):
        if c["failed"] > p["failed"]:
            problems.append(f"pair {i}: the change failed {c['failed']} events, the parent {p['failed']}")

    parent_values = [metric_values(r) for r in parent]
    change_values = [metric_values(r) for r in change]
    rows = []
    for key in sorted({k for values in parent_values + change_values for k in values}):
        p = [values[key] for values in parent_values if key in values]
        c = [values[key] for values in change_values if key in values]
        if not p or not c:
            continue
        better, bound = gated.get(key.rsplit("/", 1)[-1], (None, None))
        row = {
            "metric": key,
            "parent": statistics.median(p),
            "change": statistics.median(c),
            "parent_iqr": quartile_spread(p),
            "change_iqr": quartile_spread(c),
            "change_wins": None,
            "parent_wins": None,
            "over_bound": None,
            "verdict": None,
        }
        if better is not None:
            sign = 1 if better == "higher" else -1
            pairs = [(values.get(key), other.get(key)) for values, other in zip(parent_values, change_values)]
            pairs = [(a, b) for a, b in pairs if a is not None and b is not None]
            row["change_wins"] = sum(1 for a, b in pairs if sign * (b - a) > 0)
            row["parent_wins"] = sum(1 for a, b in pairs if sign * (b - a) < 0)
            worse = sign * (row["parent"] - row["change"])
            row["over_bound"] = worse > bound * abs(row["parent"])
            row["verdict"] = verdict(row, p, c, len(pairs), sign, bound)
        rows.append(row)
    return rows, problems


def render(rows: list[dict], pairs: int) -> str:
    lines = [f"{'workload/metric':<44} {'parent':>12} {'change':>12} {'change %':>9} "
             f"{'parent IQR':>11} {'change IQR':>11} {'wins c/p':>9}  verdict"]
    for row in rows:
        delta = (row["change"] / row["parent"] - 1) * 100 if row["parent"] else 0.0
        wins = "-" if row["change_wins"] is None else f"{row['change_wins']}/{row['parent_wins']}"
        flag = {None: "-", "worse": "WORSE THAN BOUND"}.get(row["verdict"], row["verdict"])
        lines.append(f"{row['metric']:<44} {row['parent']:>12.6g} {row['change']:>12.6g} {delta:>+8.1f}% "
                     f"{row['parent_iqr']:>11.4g} {row['change_iqr']:>11.4g} {wins:>9}  {flag}")
    lines.append(f"{pairs} pairs; wins count pairs where that side's value is better, ties for neither")
    return "\n".join(lines)


def write_runs(path: Path, parent: list[dict], change: list[dict], seconds: float,
               seed: int | None, revisions: dict[str, tuple]) -> None:
    """Every pair's parent and change result lines, in pair order, as one JSON file.

    ``revisions`` maps each side to the ``revision`` of the code it ran.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    runs = {
        "seconds": seconds,
        "seed": seed,
        "revisions": revisions,
        "pairs": [{"parent": p, "change": c} for p, c in zip(parent, change)],
    }
    path.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")


def _git(checkout: Path, *args: str, env: dict | None = None) -> str | None:
    completed = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                               check=False, env=env)
    return completed.stdout.strip() if completed.returncode == 0 else None


def revision(checkout: Path) -> tuple[str | None, str | None]:
    """``(commit, src tree)`` of a checkout.

    The commit is None when ``src`` has uncommitted edits, and when the
    checkout is not a git checkout (such as a ``git archive`` export);
    the src tree is then hashed through this checkout's repository.
    """
    top = _git(checkout, "rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != checkout.resolve():
        print(f"warning: {checkout} is not a git checkout, so its git_sha is unknown", file=sys.stderr)
        return None, _src_tree(CHANGE, checkout)
    head = _git(checkout, "rev-parse", "HEAD")
    if not _git(checkout, "status", "--porcelain", "--", "src"):
        return head, _git(checkout, "rev-parse", "HEAD:src")
    return None, _src_tree(checkout, checkout)


def _src_tree(repository: Path, checkout: Path) -> str | None:
    """Git tree hash of ``checkout/src`` as it is on disk, written to ``repository``'s objects.

    A scratch index leaves the repository's own index alone.
    """
    git_dir = _git(repository, "rev-parse", "--absolute-git-dir")
    if git_dir is None:
        return None
    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(scratch) / "index")}
        where = ("--git-dir", git_dir, "--work-tree", str(checkout))
        _git(checkout, *where, "read-tree", "HEAD", env=env)
        _git(checkout, *where, "add", "-A", "--", "src", env=env)
        return _git(checkout, *where, "write-tree", "--prefix=src/", env=env)


def trajectory_entries(rows, parent_trace: dict, change_trace: dict, pairs: int, seconds: float,
                       parent_rev, change_rev) -> dict[str, list[dict]]:
    """``workload -> [parent entry, change entry]`` in the ``BENCH_<workload>.json`` format."""
    medians: dict[str, dict[str, dict[str, float]]] = {}
    for row in rows:
        workload, metric = row["metric"].split("/", 1)
        for side in ("parent", "change"):
            medians.setdefault(workload, {}).setdefault(side, {})[metric] = row[side]
    traces = {"parent": metric_values(parent_trace), "change": metric_values(change_trace)}
    revisions = {"parent": parent_rev, "change": change_rev}
    entries = {}
    for workload, sides in medians.items():
        entries[workload] = [
            {
                "label": side,
                "git_sha": revisions[side][0],
                "child_of": parent_rev[0] if side == "change" else None,
                "src_tree": revisions[side][1],
                "python": platform.python_version(),
                "runs": pairs,
                "seconds": seconds,
                "medians": sides[side],
                BYTES_PER_SLOT: traces[side].get(f"{workload}/{BYTES_PER_SLOT}"),
            }
            for side in ("parent", "change")
        ]
    return entries


def append_entries(directory: Path, entries: dict[str, list[dict]]) -> list[Path]:
    written = []
    for workload, new in entries.items():
        path = directory / f"BENCH_{workload}.json"
        if path.exists():
            trajectory = json.loads(path.read_text(encoding="utf-8"))
        else:
            trajectory = {"workload": workload, "entries": []}
        trajectory["entries"].extend(new)
        path.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
        written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0, help="timed replay length per workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed for every workload (default: each workload's own)")
    parser.add_argument("--append", action="store_true",
                        help="append the kept runs' medians to BENCH_<workload>.json; runs no pairs")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.append and args.seed is not None:
        parser.error("--append records default-seed trajectories; drop --seed")
    parent_dir = args.parent.resolve()
    if not (parent_dir / "bench" / "run.py").is_file():
        parser.error(f"{parent_dir} has no bench/run.py")
    runs_path = CHANGE / RUNS_FILE
    revisions = {"parent": revision(parent_dir), "change": revision(CHANGE)}

    if args.append:
        try:
            runs = json.loads(runs_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            parser.error(f"--append reads the kept runs, and {runs_path} does not exist: run the pairs first")
        if runs["seed"] is not None:
            parser.error(f"{runs_path} was recorded with --seed {runs['seed']}; "
                         "--append records default-seed trajectories")
        if runs.get("revisions") != {side: list(rev) for side, rev in revisions.items()}:  # JSON has no tuples
            parser.error(f"{runs_path} was recorded from other code than the two checkouts hold now")
        parent = [pair["parent"] for pair in runs["pairs"]]
        change = [pair["change"] for pair in runs["pairs"]]
        seconds = runs["seconds"]
    else:
        parent, change = [], []
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"pair {i + 1}/{args.pairs}: {side}", file=sys.stderr, flush=True)
                checkout, results = (parent_dir, parent) if side == "parent" else (CHANGE, change)
                results.append(last_json_line(run_bench(checkout, args.seconds, trace=False, seed=args.seed)))
        seconds = args.seconds
        write_runs(runs_path, parent, change, seconds, args.seed, revisions)
        print(f"every run's result line is in {runs_path}")

    benchmark = json.loads((CHANGE / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows, problems = compare(parent, change, gates(benchmark))
    print(render(rows, len(parent)))
    for problem in problems:
        print(f"PROBLEM: {problem}")

    if args.append:
        traces = {}
        for side, checkout in (("parent", parent_dir), ("change", CHANGE)):
            print(f"trace run: {checkout}", file=sys.stderr, flush=True)
            traces[side] = last_json_line(run_bench(checkout, 5, trace=True))
        entries = trajectory_entries(rows, traces["parent"], traces["change"], len(parent), seconds,
                                     revisions["parent"], revisions["change"])
        for path in append_entries(CHANGE, entries):
            print(f"appended to {path.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
