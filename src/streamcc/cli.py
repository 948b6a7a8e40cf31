"""Command-line interface.

Subcommands: ``check`` (replay a log through one policy and report
per-case conformance), ``experiment`` (run a policy-comparison config),
``replay`` (print the ordered stream) and ``validate-model`` (PNML
diagnostics). Exit codes: 0 success, 2 unreadable, unparsable or
invalid input, 3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from collections import deque
from pathlib import Path
from typing import Sequence

from .alignment import DEFAULT_SEARCH_BUDGET, check_search_budget
from .errors import SearchBudgetExceeded, StreamccError
from .evaluation import ExperimentConfig, config_echo, run_experiment, write_results
from .petri import Marking, PetriNet
from .pnml import load_model
from .policies import ConformanceEngine, Method, Policy, PolicyConfig
from .streams import CsvColumns, read_log, replay

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SearchBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (StreamccError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcc",
        description="Memory-bounded online conformance checking of event streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="replay a log through one policy")
    check.add_argument("--model", required=True, help="PNML process model")
    check.add_argument("--log", required=True, help="event log (.csv or .xes)")
    check.add_argument("--policy", required=True, choices=[p.value for p in Policy])
    check.add_argument("--w", type=int, default=None, help="state limit per case")
    check.add_argument("--n", type=int, default=None, help="multi-state case limit")
    check.add_argument("--out", default=None, help="output path (default: stdout)")
    check.add_argument("--format", choices=("csv", "json"), default="csv")
    check.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    _add_column_flags(check)
    check.set_defaults(handler=_cmd_check)

    experiment = sub.add_parser("experiment", help="run a policy-comparison experiment")
    experiment.add_argument("--config", required=True, help="experiment config (JSON)")
    experiment.add_argument("--jobs", type=int, default=1, help="parallel policy runs")
    experiment.add_argument("--seed", type=int, default=None, help="override synthetic-stream seed")
    experiment.set_defaults(handler=_cmd_experiment)

    rep = sub.add_parser("replay", help="print the timestamp-ordered stream")
    rep.add_argument("--log", required=True)
    rep.add_argument("--paced", action="store_true", help="sleep between events")
    _add_column_flags(rep)
    rep.set_defaults(handler=_cmd_replay)

    validate = sub.add_parser("validate-model", help="diagnose a PNML model")
    validate.add_argument("--model", required=True)
    validate.set_defaults(handler=_cmd_validate_model)
    return parser


def _add_column_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--col-case", default="case_id", help="CSV case id column")
    parser.add_argument("--col-activity", default="activity", help="CSV activity column")
    parser.add_argument("--col-timestamp", default="timestamp", help="CSV timestamp column")


def _columns(args: argparse.Namespace) -> CsvColumns:
    return CsvColumns(case_id=args.col_case, activity=args.col_activity, timestamp=args.col_timestamp)


def _cmd_check(args: argparse.Namespace) -> int:
    # flag validation happens before any file is read
    config = PolicyConfig(Policy(args.policy), w=args.w, n=args.n)
    check_search_budget(args.budget)
    net = load_model(args.model)
    log = read_log(args.log, _columns(args))
    engine = ConformanceEngine(net, config, search_budget=args.budget)

    # case id -> [model-semantics events, shortest-path events, last cost, last conformant]
    cases: dict[str, list] = {}
    # no event ref: no output reads the refs an alignment keeps
    for event in replay(log):
        outcome = engine.process(event.case_id, event.activity)
        case = cases.get(outcome.case_id)
        if case is None:
            case = cases[outcome.case_id] = [0, 0, None, None]
        case[outcome.method is Method.SHORTEST_PATH] += 1
        case[2] = outcome.effective_cost
        case[3] = outcome.conformant

    rows = []
    for case_id in sorted(cases):
        model_semantics, shortest_path, cost, conformant = cases[case_id]
        rows.append(
            {
                "case_id": case_id,
                "events": model_semantics + shortest_path,  # every outcome has exactly one method
                "effective_cost": cost,
                "conformant": conformant,
                # an evicted case's R_C summary carries a cost its last outcome does not hold
                "residual_cost": engine.residual_cost(case_id),
                "model_semantics": model_semantics,
                "shortest_path": shortest_path,
            }
        )
    if args.format == "json":
        text = json.dumps({"policy": config.label, "cases": rows}, indent=2) + "\n"
    else:
        # quoted as the log's reader expects, so a case id may hold a comma or a quote
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(
            ("case_id", "events", "effective_cost", "conformant", "residual_cost", "model_semantics", "shortest_path")
        )
        for r in rows:
            cost, residual = f"{r['effective_cost']:.6g}", f"{r['residual_cost']:.6g}"
            conformant = str(r["conformant"]).lower()
            writer.writerow(
                (r["case_id"], r["events"], cost, conformant, residual, r["model_semantics"], r["shortest_path"])
            )
        text = buffer.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(rows)} cases, policy {config.label})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        if config.synthetic is None:
            raise ValueError("--seed applies only to configs with a synthetic stream")
        config = dataclasses.replace(config, synthetic_seed=args.seed)
    result = run_experiment(config, jobs=args.jobs)
    paths = write_results(result, config.output_dir, config_echo(config))
    for run in result.runs:
        status = f"FAILED ({run.error})" if run.error else f"{len(run.windows)} windows"
        print(f"{run.label}: {status}, searches={run.search_count}")
    print(f"wrote {len(paths)} files to {config.output_dir}")
    return EXIT_OK


def _cmd_replay(args: argparse.Namespace) -> int:
    log = read_log(args.log, _columns(args))
    for event in replay(log, pace=1e-3 if args.paced else None):
        print(f"{event.arrival_index}\t{event.case_id}\t{event.activity}\t{event.timestamp.isoformat()}")
    return EXIT_OK


def _cmd_validate_model(args: argparse.Namespace) -> int:
    net = load_model(args.model)
    silent = sorted(t for t in net.transitions if net.is_silent(t))
    print(f"model: {net.name or Path(args.model).stem}")
    print(f"places: {len(net.places)}")
    print(f"transitions: {len(net.transitions)} ({len(silent)} silent)")
    print(f"arcs: {len(net.arcs)}")
    print(f"initial marking: {net.initial_marking}")
    print(f"final marking: {net.final_marking if net.final_marking.entries else '(not set)'}")
    if silent:
        print(f"silent transitions: {', '.join(silent)}")

    for label in sorted(set(net.labels.values())):
        ts = net.transitions_labeled(label)
        if len(ts) < 2:
            continue
        print(f"duplicate label {label!r}: transitions {', '.join(ts)}")
        shared = set(net.preset(ts[0]))
        for t in ts[1:]:
            shared &= set(net.preset(t))
        if shared:
            print(
                f"WARNING: transitions {', '.join(ts)} share label {label!r} and "
                f"input place(s) {', '.join(sorted(shared))}; identical execution "
                "sequences can reach different markings"
            )

    if net.final_marking.entries:
        reachable, explored = _final_marking_reachable(net, limit=10_000)
        if reachable is None:
            print(f"final marking reachable: unknown (budget of {explored} markings explored)")
        else:
            print(f"final marking reachable: {'yes' if reachable else 'no'} ({explored} markings explored)")
    return EXIT_OK


def _final_marking_reachable(net: PetriNet, limit: int) -> tuple[bool | None, int]:
    """Breadth-first reachability of the final marking, bounded by ``limit`` markings."""
    seen: set[Marking] = {net.initial_marking}
    frontier = deque([net.initial_marking])
    while frontier:
        marking = frontier.popleft()
        if net.is_final(marking):
            return True, len(seen)
        for nxt in net.successors(marking).values():
            if nxt not in seen:
                if len(seen) >= limit:
                    return None, len(seen)
                seen.add(nxt)
                frontier.append(nxt)
    return False, len(seen)


if __name__ == "__main__":
    sys.exit(main())
