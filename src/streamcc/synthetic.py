"""Deterministic synthetic models and event streams for experiments.

The reference model is a cyclic sequence of uniquely labeled steps, so
conformant traces of any length exist and every deviation stays local.
Streams interleave a configurable number of concurrently open cases and
inject bounded, well-separated noise edits per case.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta

from .errors import check_int
from .petri import PetriNet
from .streams import Event, EventLog

ALIEN_ACTIVITY = "ZZ"  # never part of a generated model's alphabet

NOISE_KINDS = ("alien", "skip", "duplicate", "swap")


def step_label(i: int) -> str:
    """The activity label of step ``i`` of the cyclic sequence net."""
    return f"A{i}"


def cyclic_sequence_net(steps: int = 10) -> PetriNet:
    """A cycle of ``steps`` uniquely labeled transitions.

    Transition ``t<i>`` (label ``step_label(i)``) moves the token from place
    ``s<i>`` to ``s<i+1 mod steps>``; the initial and final markings both
    put one token on ``s0``, completed laps end where they started.
    """
    check_int(steps, "steps")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    places = [f"s{i}" for i in range(steps)]
    transitions = {f"t{i}": step_label(i) for i in range(steps)}
    arcs = []
    for i in range(steps):
        arcs.append((f"s{i}", f"t{i}"))
        arcs.append((f"t{i}", f"s{(i + 1) % steps}"))
    return PetriNet.build(
        places=places,
        transitions=transitions,
        arcs=arcs,
        initial={"s0": 1},
        final={"s0": 1},
        name=f"cycle{steps}",
    )


# The fewest each StreamSpec count allows besides cases and open_cases; a
# cyclic net needs two steps, as cyclic_sequence_net says.
_FEWEST = {
    "base_length": 1,
    "length_jitter": 0,
    "long_length": 1,
    "max_edits": 1,
    "min_gap": 0,
    "model_steps": 2,
    "step_seconds": 0,
}


@dataclass(frozen=True)
class StreamSpec:
    """Shape of a generated stream; all randomness comes from the seed."""

    cases: int = 100
    open_cases: int = 10
    base_length: int = 10
    length_jitter: int = 2
    long_fraction: float = 0.0
    long_length: int = 40
    noise_probability: float = 0.3
    max_edits: int = 2
    min_gap: int = 6
    kinds: tuple[str, ...] = ("alien", "skip", "duplicate", "swap")
    model_steps: int = 10
    start: datetime = datetime(2021, 10, 1, 8, 0, 0)
    step_seconds: int = 30

    def __post_init__(self) -> None:
        check_int(self.cases, "cases")
        check_int(self.open_cases, "open_cases")
        if self.cases < 1 or self.open_cases < 1:
            raise ValueError("cases and open_cases must be >= 1")
        unknown = set(self.kinds) - set(NOISE_KINDS)
        if unknown:
            raise ValueError(f"unknown noise kinds {sorted(unknown)}")
        if not self.kinds and self.noise_probability > 0:
            raise ValueError("kinds must name at least one noise kind when noise_probability > 0")
        for name, fewest in _FEWEST.items():
            value = getattr(self, name)
            check_int(value, name)
            if value < fewest:
                raise ValueError(f"{name} must be >= {fewest}, not {value!r}")
        for name in ("long_fraction", "noise_probability"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, not {value!r}")
            if not 0 <= value <= 1:  # NaN too
                raise ValueError(f"{name} must lie in [0, 1], not {value!r}")
        if not isinstance(self.start, datetime):
            raise ValueError(f"start must be a datetime, not {self.start!r}")


def _case_trace(spec: StreamSpec, rng: random.Random) -> list[str]:
    if spec.long_fraction > 0 and rng.random() < spec.long_fraction:
        length = max(2, round(rng.gauss(spec.long_length, spec.length_jitter)))
    else:
        length = max(2, round(rng.gauss(spec.base_length, spec.length_jitter / 2)))
    trace = [step_label(i % spec.model_steps) for i in range(length)]
    if rng.random() >= spec.noise_probability:
        return trace
    edits = rng.randint(1, spec.max_edits)
    positions: list[int] = []
    for _ in range(edits * 4):
        if len(positions) >= edits:
            break
        pos = rng.randrange(0, len(trace) - 1)
        if all(abs(pos - p) >= spec.min_gap for p in positions):
            positions.append(pos)
    for pos in sorted(positions, reverse=True):
        kind = rng.choice(spec.kinds)
        if kind == "alien":
            trace.insert(pos, ALIEN_ACTIVITY)
        elif kind == "skip":
            del trace[pos]
        elif kind == "duplicate":
            trace.insert(pos, trace[pos])
        elif kind == "swap" and pos + 1 < len(trace):
            trace[pos], trace[pos + 1] = trace[pos + 1], trace[pos]
    return trace


def generate_log(spec: StreamSpec, seed: int = 0) -> EventLog:
    """Generate an interleaved event log for ``cyclic_sequence_net(spec.model_steps)``."""
    rng = random.Random(seed)
    width = len(str(spec.cases))
    traces = {
        f"c{str(i).zfill(width)}": _case_trace(spec, rng) for i in range(1, spec.cases + 1)
    }
    backlog = list(traces)
    backlog.reverse()  # popped from the end: the first case first
    open_cases = spec.open_cases
    open_pool: list[str] = []
    cursor: dict[str, int] = {}
    new_event = Event._from_fields
    events: list[Event] = []
    append = events.append
    clock = spec.start
    step = timedelta(seconds=spec.step_seconds)
    choice = rng.choice
    while backlog or open_pool:
        while backlog and len(open_pool) < open_cases:
            case = backlog.pop()
            open_pool.append(case)
            cursor[case] = 0
        case = choice(open_pool)
        position = cursor[case]
        trace = traces[case]
        append(new_event((len(events) + 1, case, trace[position], clock)))
        clock += step
        position += 1
        cursor[case] = position
        if position >= len(trace):
            open_pool.remove(case)
    return EventLog(tuple(events))
