#!/usr/bin/env python3
"""streamcc benchmark: replayed event streams and the shipped experiment.

Run from the repository root:

    python3 bench/run.py --workload churn-evict --seed 1 --seconds 10 --trace 0
    python3 bench/run.py                      # every workload at its default seed

One process, one caller, no threads: a closed loop hands the engine the
next event only after the previous ``process`` call returned. With
``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer split, taken by wrapping streamcc's public
functions from outside the package (see ``bench/tracing.py``), and
writes the spans under ``.bench_build/streamcc/trace/``. Times are
scaled to a reference CPU speed (see ``bench/measure.py``).

Every run checks its outputs, untimed: the policy's bounds after every
event, each baseline case's final cost against a fresh optimal search
over its whole trace, every timed replay against the checked one, and,
at a workload's default seed, the output digest recorded in
``bench/workloads.py``. The last line of standard output is one JSON
object. The exit code is 1 when a check fails or when streamcc cannot
be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: each workload's recorded seed)")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed replay length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT), str(SOURCE)]
    try:
        import streamcc
    except ImportError as exc:
        sys.exit(f"cannot import streamcc from {SOURCE}: {exc}")
    if Path(streamcc.__file__).resolve().parent != (SOURCE / "streamcc").resolve():
        sys.exit(f"streamcc was imported from {streamcc.__file__}, not from {SOURCE}")
    from bench import runner, workloads

    if args.workload == "all":
        return runner.run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    return runner.run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
