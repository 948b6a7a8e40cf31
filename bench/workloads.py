"""Benchmark workloads: what each one feeds the engine, and why it exists.

Every stream workload is made from its seed alone and handed to the
program only as files: a PNML model written with ``streamcc.pnml.to_pnml``
and a CSV event log. The experiment workload runs the shipped
``data/experiment_example.json`` with its synthetic seed replaced by the
benchmark seed.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

from streamcc import petri, pnml, streams, synthetic
from streamcc.policies import Policy, PolicyConfig

ALIEN = synthetic.ALIEN_ACTIVITY


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    default_seed: int
    # SHA-256 of the outputs at ``default_seed``: the EventOutcome sequence
    # for a stream, the result CSVs without ``apte_us`` for the experiment.
    digest: str
    # Stream workloads only: the policy, the model, and the log for a seed.
    policy: PolicyConfig | None = None
    net: Callable[[], petri.PetriNet] | None = None
    log: Callable[[int], streams.EventLog] | None = None

    @property
    def is_experiment(self) -> bool:
        return self.policy is None


# Event window over which a stream workload's policy is compared with the
# baseline (the evaluation harness's default).
QUALITY_WINDOW = 1000

EXPERIMENT_CONFIG = Path("data") / "experiment_example.json"

CHURN_SPEC = synthetic.StreamSpec(cases=2000, open_cases=300, base_length=10, noise_probability=0.3)

LONG_CASES = 12
LONG_OPEN = 8
LONG_LENGTH = 400
# Every long trace gets one edit at each of these fractions of its length,
# kinds taken in turn, so that every seed carries the same search load and
# seeds differ only in how the cases interleave.
LONG_EDIT_AT = (0.25, 0.5, 0.75)

PARALLEL_BRANCHES = 5
PARALLEL_DEPTH = 3
PARALLEL_CASES = 300
PARALLEL_OPEN = 20
PARALLEL_NOISY = (0, 3, 6)  # case index modulo 10


def interleave(traces: list[list[str]], open_cases: int, rng: random.Random) -> streams.EventLog:
    """Merge traces into one log, ``open_cases`` running at a time, 30 s apart.

    Case ``i`` (from 1) is named ``c<i>`` zero-padded to a common width.
    """
    width = len(str(len(traces)))
    pending = [(f"c{str(i).zfill(width)}", list(t)) for i, t in enumerate(traces, start=1)]
    pending.reverse()
    running: list[tuple[str, list[str]]] = []
    events: list[streams.Event] = []
    clock = datetime(2021, 10, 1, 8, 0, 0)
    while pending or running:
        while pending and len(running) < open_cases:
            running.append(pending.pop())
        slot = rng.randrange(len(running))
        case_id, trace = running[slot]
        events.append(streams.Event(len(events) + 1, case_id, trace.pop(0), clock))
        clock += timedelta(seconds=30)
        if not trace:
            running.pop(slot)
    return streams.EventLog(tuple(events))


def long_log(seed: int) -> streams.EventLog:
    """Long conforming laps of ``cyclic_sequence_net(10)``, each with the same edits."""
    traces = []
    for case in range(LONG_CASES):
        trace = [f"A{i % 10}" for i in range(LONG_LENGTH)]
        for j, fraction in reversed(list(enumerate(LONG_EDIT_AT))):
            position = round(LONG_LENGTH * fraction)
            kind = synthetic.NOISE_KINDS[(case + j) % len(synthetic.NOISE_KINDS)]
            if kind == "alien":
                trace.insert(position, ALIEN)
            elif kind == "skip":
                del trace[position]
            elif kind == "duplicate":
                trace.insert(position, trace[position])
            else:
                trace[position], trace[position + 1] = trace[position + 1], trace[position]
        traces.append(trace)
    return interleave(traces, LONG_OPEN, random.Random(seed))


def parallel_net() -> petri.PetriNet:
    """``PARALLEL_BRANCHES`` labeled sequences of ``PARALLEL_DEPTH`` steps
    between a silent split and a silent join.

    Transition ``b<k>_<d>`` carries label ``B<k><d>``.
    """
    places = ["i", "o"]
    transitions: dict[str, str | None] = {"split": None, "join": None}
    arcs = [("i", "split"), ("join", "o")]
    for k in range(1, PARALLEL_BRANCHES + 1):
        places += [f"p{k}_{d}" for d in range(PARALLEL_DEPTH + 1)]
        arcs += [("split", f"p{k}_0"), (f"p{k}_{PARALLEL_DEPTH}", "join")]
        for d in range(1, PARALLEL_DEPTH + 1):
            transitions[f"b{k}_{d}"] = f"B{k}{d}"
            arcs += [(f"p{k}_{d - 1}", f"b{k}_{d}"), (f"b{k}_{d}", f"p{k}_{d}")]
    return petri.PetriNet.build(
        places, transitions, arcs, initial={"i": 1}, final={"o": 1}, name="parallel"
    )


def parallel_log(seed: int, cases: int = PARALLEL_CASES) -> streams.EventLog:
    """Random interleavings of :func:`parallel_net`'s branches.

    Three cases in ten (``PARALLEL_NOISY``) get one deviation in the middle
    of the trace, alternately an alien event and a skipped event, so that
    every seed carries the same search load.
    """
    rng = random.Random(seed)
    traces = []
    for case in range(cases):
        remaining = {k: 1 for k in range(1, PARALLEL_BRANCHES + 1)}
        trace = []
        while remaining:
            k = rng.choice(sorted(remaining))
            trace.append(f"B{k}{remaining[k]}")
            remaining[k] += 1
            if remaining[k] > PARALLEL_DEPTH:
                del remaining[k]
        if case % 10 in PARALLEL_NOISY:
            if (PARALLEL_NOISY.index(case % 10) + case // 10) % 2:
                del trace[len(trace) // 2]
            else:
                trace.insert(len(trace) // 2, ALIEN)
        traces.append(trace)
    return interleave(traces, PARALLEL_OPEN, rng)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="churn-evict",
            why=(
                "open cases exceed n, so most events evict a case and resume from a "
                "summary: eviction and the extension path dominate"
            ),
            default_seed=1,
            digest="d3d1d9cce611dfb0bd0d0d98fbdaa6d1232c0dd1d0499b8d115610470d956b07",
            policy=PolicyConfig(Policy.COMBINED, w=3, n=100),
            net=lambda: synthetic.cyclic_sequence_net(CHURN_SPEC.model_steps),
            log=lambda seed: synthetic.generate_log(CHURN_SPEC, seed),
        ),
        Workload(
            name="long-traces",
            why=(
                "400-event cases under the baseline: costs that grow with prefix "
                "length and whole-trace searches dominate"
            ),
            default_seed=1,
            digest="05ef78031269eec1077718c1534a9fd591ed925bd0677db923e0629b11b8385e",
            policy=PolicyConfig(Policy.BASELINE),
            net=lambda: synthetic.cyclic_sequence_net(10),
            log=long_log,
        ),
        Workload(
            name="parallel-alien",
            why=(
                "the only net with concurrency and silent split/join, so searches "
                "are shallow but wide"
            ),
            default_seed=1,
            digest="e55a441c60ffd80f5ea3223891054e78380e27ebbe45d05e1af86c8ce5b8eddb",
            policy=PolicyConfig(Policy.BASELINE),
            net=parallel_net,
            log=parallel_log,
        ),
        Workload(
            name="experiment-example",
            why=(
                "the shipped 36-policy experiment, the only workload through the "
                "evaluation harness and its per-event slot rescan"
            ),
            default_seed=7,
            digest="558ab7ce85c993f73384fbb30d3577a1458710ebdd21f2125dd3ea9780aefbdb",
        ),
    )
}


@dataclass(frozen=True)
class StreamFiles:
    model: Path
    log: Path


def write_stream_inputs(workload: Workload, seed: int, directory: Path) -> StreamFiles:
    """Generate the workload's model and log for ``seed`` and write them as files."""
    net, log = workload.net(), workload.log(seed)
    directory.mkdir(parents=True, exist_ok=True)
    files = StreamFiles(directory / f"{workload.name}.pnml", directory / f"{workload.name}.csv")
    files.model.write_text(pnml.to_pnml(net), encoding="utf-8")
    with open(files.log, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "activity", "timestamp"])
        for event in log.events:
            writer.writerow([event.case_id, event.activity, event.timestamp.isoformat(sep=" ")])
    return files
