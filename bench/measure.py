"""Measurement and checking helpers shared by the benchmark workloads.

The benchmark is a closed loop with one caller: the next event is handed
to ``ConformanceEngine.process`` only after the previous call returned.
The sustainable rate is derived from the measured service times, which
is valid because the engine does no work between events.

Times are reported at a reference CPU speed. On a shared host the CPU
speed a process gets can drift by 1.5-2x for seconds at a time, and CPU
time drifts with it, so every timed section runs a fixed piece of
interpreter work (the speed probe) every ``PROBE_INTERVAL_NS`` and each
time measured between two probes is scaled by ``REFERENCE_PROBE_NS``
over the probe time around it. The scaled time is the time the work
would take where the probe takes exactly ``REFERENCE_PROBE_NS``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import tracemalloc
from array import array
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from streamcc import alignment, evaluation, policies
from streamcc.errors import SearchBudgetExceeded
from streamcc.streams import StreamEvent

LATENCY_LIMIT_S = 0.010
LATENCY_QUANTILE = 0.99
# Bisection steps when the capacity misses the limit: the rate is then
# found to within capacity / 2**40.
RATE_STEPS = 40


# -- statistics ------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def fifo_latencies(service_s: Sequence[float], rate: float) -> np.ndarray:
    """Latency of each event, from its due time ``i / rate`` to its finish.

    One server, first in first out: ``finish_i = max(due_i, finish_{i-1}) + service_i``,
    solved in closed form as ``finish_i = max_{j<=i} (due_j + sum_{k=j..i} service_k)``.
    """
    service = np.asarray(service_s, dtype=float)
    due = np.arange(len(service)) / rate
    done = np.cumsum(service)
    return done - due + np.maximum.accumulate(due - (done - service))


def sustainable_rate(service_s: Sequence[float]) -> float:
    """Highest fixed arrival rate (events/s) whose latency quantile stays within the limit.

    The quantile is ``LATENCY_QUANTILE`` and the limit ``LATENCY_LIMIT_S``.
    Latency is measured from each event's due time, so a stall also delays
    the events queued behind it. A failed event (service time ``inf``)
    misses the limit at every rate. The rate never exceeds the capacity
    ``n / sum(service)``, above which the backlog grows without bound.
    Returns 0 when even an idle server misses the limit.
    """
    service = np.asarray(service_s, dtype=float)
    finite = service[np.isfinite(service)]
    if len(finite) == 0:
        return 0.0
    capacity = len(service) / float(finite.sum())
    rank = max(math.ceil(LATENCY_QUANTILE * len(service)) - 1, 0)

    def meets(rate: float) -> bool:
        latencies = fifo_latencies(np.where(np.isfinite(service), service, 0.0), rate)
        latencies[~np.isfinite(service)] = np.inf
        return float(np.partition(latencies, rank)[rank]) <= LATENCY_LIMIT_S

    if meets(capacity):
        return capacity
    if np.partition(service, rank)[rank] > LATENCY_LIMIT_S:
        return 0.0
    low, high = 0.0, capacity
    for _ in range(RATE_STEPS):
        mid = (low + high) / 2
        if meets(mid):
            low = mid
        else:
            high = mid
    return low


# -- speed probe -----------------------------------------------------------

PROBE_LOOPS = 8000
PROBE_INTERVAL_NS = 50_000_000
REFERENCE_PROBE_NS = 1_000_000
_PROBE_TABLE = {i: i for i in range(1024)}


def probe_ns() -> int:
    """Time ``PROBE_LOOPS`` dictionary lookups; allocates no container, so never triggers gc."""
    table = _PROBE_TABLE
    total = 0
    started = time.perf_counter_ns()
    for i in range(PROBE_LOOPS):
        total += table[i & 1023]
    return time.perf_counter_ns() - started


class SpeedTrack:
    """Splits a timed section into segments with a speed probe between each two.

    Probe time is excluded from the segments. ``factors()`` gives, per
    segment, the scale from measured to reference time: the reference
    probe time over the median of the five probes nearest the segment,
    which tolerates one probe hit by an interrupt on either side.
    """

    def __init__(self) -> None:
        self.probes = [probe_ns()]
        self.segment_ns: list[int] = []
        self.segment_started = time.perf_counter_ns()

    @property
    def segment(self) -> int:
        return len(self.segment_ns)

    def probe(self) -> None:
        """End the current segment with a probe and start the next one."""
        self.segment_ns.append(time.perf_counter_ns() - self.segment_started)
        self.probes.append(probe_ns())
        self.segment_started = time.perf_counter_ns()

    def due(self, now_ns: int) -> bool:
        return now_ns - self.segment_started >= PROBE_INTERVAL_NS

    def factors(self) -> list[float]:
        probes = self.probes
        return [
            REFERENCE_PROBE_NS / statistics.median(probes[max(k - 2, 0): k + 3])
            for k in range(len(self.segment_ns))
        ]

    def scaled_ns(self) -> float:
        """Total segment time at reference speed."""
        return sum(ns * f for ns, f in zip(self.segment_ns, self.factors()))


# -- output digests --------------------------------------------------------


class OutcomeDigest:
    """SHA-256 over the full EventOutcome sequence; a failed event hashes as ``failed``."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, outcome: policies.EventOutcome | None) -> None:
        if outcome is None:
            line = "failed\n"
        else:
            line = (
                f"{outcome.case_id}\t{outcome.activity}\t{outcome.arrival_index}\t"
                f"{outcome.effective_cost!r}\t{outcome.conformant}\t{outcome.method.value}\t"
                f"{outcome.residual_cost!r}\n"
            )
        self._hash.update(line.encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# -- timed replay ----------------------------------------------------------


@dataclass
class Round:
    """One timed section: its wall time and per-event service times, at reference speed.

    A failed ``process`` call has service time ``inf``.
    """

    wall_s: float
    service_s: list[float]
    raw_wall_s: float
    failed: int = 0
    # effective cost of each replayed event, ``nan`` where it failed
    costs: array = field(default_factory=lambda: array("d"))


class ServiceTimer:
    """Times every ``ConformanceEngine.process`` call made inside the ``with`` block.

    The speed is probed between calls, so the whole block, including the
    work between calls, is split into probed segments. A call that raises
    (``SearchBudgetExceeded``) counts as failed.
    """

    def __enter__(self) -> "ServiceTimer":
        self._ns = array("q")
        self._segments = array("I")
        self._original = policies.ConformanceEngine.process
        self._track = track = SpeedTrack()
        original, clock = self._original, time.perf_counter_ns
        record, record_segment = self._ns.append, self._segments.append

        def process(engine, *args, **kwargs):
            done = False
            before = clock()
            try:
                outcome = original(engine, *args, **kwargs)
                done = True
                return outcome
            finally:
                after = clock()
                record(after - before if done else -1)
                record_segment(track.segment)
                if track.due(after):
                    track.probe()

        policies.ConformanceEngine.process = process
        return self

    def __exit__(self, *exc) -> None:
        policies.ConformanceEngine.process = self._original
        track = self._track
        track.probe()
        factors = track.factors()
        self.round = Round(
            wall_s=track.scaled_ns() / 1e9,
            service_s=[
                math.inf if ns < 0 else ns * factors[k] / 1e9
                for ns, k in zip(self._ns, self._segments)
            ],
            raw_wall_s=sum(track.segment_ns) / 1e9,
            failed=self._ns.count(-1),
        )


def replay(
    net,
    config: policies.PolicyConfig,
    events: Sequence[StreamEvent],
    budget: int = alignment.DEFAULT_SEARCH_BUDGET,
) -> tuple[policies.ConformanceEngine, array]:
    """Replay ``events`` through a fresh engine; the engine and each event's effective cost.

    A ``SearchBudgetExceeded`` fails that event only (its cost is ``nan``)
    and the replay goes on. Only the costs are kept, in a flat array, so
    the replay adds no objects for the garbage collector to traverse.
    """
    engine = policies.ConformanceEngine(net, config, search_budget=budget)
    process = engine.process
    costs = array("d")
    record = costs.append
    for event in events:
        try:
            record(process(event.case_id, event.activity, event.arrival_index).effective_cost)
        except SearchBudgetExceeded:
            record(math.nan)
    return engine, costs


def timed_round(
    net,
    config: policies.PolicyConfig,
    events: Sequence[StreamEvent],
    budget: int = alignment.DEFAULT_SEARCH_BUDGET,
) -> Round:
    """:func:`replay` under a :class:`ServiceTimer`."""
    with ServiceTimer() as timer:
        _, costs = replay(net, config, events, budget)
    timer.round.costs = costs
    return timer.round


def timed_call(fn):
    """Call ``fn()`` between two speed probes; returns its result and a ``Round`` without events."""
    track = SpeedTrack()
    result = fn()
    track.probe()
    return result, Round(track.scaled_ns() / 1e9, [], track.segment_ns[0] / 1e9)


def final_costs(engine: policies.ConformanceEngine) -> dict[str, float]:
    """Fitness cost of each case the engine still stores."""
    return {r.case_id: r.prefix_alignment.fitness_cost for r in engine.store.records()}


# -- checked pass ----------------------------------------------------------


@dataclass
class CheckedPass:
    """Results of the untimed pass that checks bounds and measures memory."""

    digest: str
    failed: int
    # effective cost of each event, ``nan`` where it failed
    costs: array
    peak_stored_states: int
    peak_heap_bytes: int
    bytes_per_slot: float
    final_costs: dict[str, float]
    problems: list[str] = field(default_factory=list)


def slot_limit(config: policies.PolicyConfig) -> int | None:
    """Most states one stored case may hold; truncation keeps a summary next to one state."""
    return max(config.w, 2) if config.w is not None else None


def checked_pass(
    net,
    config: policies.PolicyConfig,
    events: Sequence[StreamEvent],
    budget: int = alignment.DEFAULT_SEARCH_BUDGET,
) -> CheckedPass:
    """Replay once under tracemalloc, checking the policy's bounds after every event.

    Nothing that grows with the stream is kept outside the engine, so the
    traced peak is the engine's own memory. ``bytes_per_slot`` divides the
    memory still held at the end by the stored slots at the end.
    """
    digest = OutcomeDigest()
    costs = array("d")
    limit_cases = config.n
    limit_slots = slot_limit(config)
    problems: list[str] = []
    failed = 0
    peak_states = 0
    tracemalloc.start()
    try:
        engine = policies.ConformanceEngine(net, config, search_budget=budget)
        for event in events:
            try:
                outcome = engine.process(event.case_id, event.activity, event.arrival_index)
            except SearchBudgetExceeded:
                outcome = None
                failed += 1
            digest.add(outcome)
            costs.append(math.nan if outcome is None else outcome.effective_cost)
            if limit_cases is not None and len(engine.store) > limit_cases:
                problems.append(f"event {event.arrival_index}: {len(engine.store)} stored cases > n")
            record = engine.store.get(event.case_id)
            if limit_slots is not None and record is not None:
                held = record.prefix_alignment.state_count
                if held > limit_slots:
                    problems.append(f"event {event.arrival_index}: case holds {held} states")
            peak_states = max(peak_states, engine.stored_state_count)
        held_bytes, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    final_slots = engine.stored_state_count
    return CheckedPass(
        digest=digest.hexdigest(),
        failed=failed,
        costs=costs,
        peak_stored_states=peak_states,
        peak_heap_bytes=peak_bytes,
        bytes_per_slot=held_bytes / final_slots if final_slots else 0.0,
        final_costs=final_costs(engine),
        problems=problems[:10],
    )


def optimality_problems(
    net, events: Sequence[StreamEvent], final_costs: dict[str, float]
) -> list[str]:
    """Cases whose final baseline cost differs from a fresh search over the whole trace."""
    traces: dict[str, list[str]] = {}
    for event in events:
        traces.setdefault(event.case_id, []).append(event.activity)
    problems = []
    for case_id, trace in traces.items():
        fresh = alignment.shortest_path_prefix_alignment(net, net.initial_marking, trace)
        if final_costs.get(case_id) != fresh.fitness_cost:
            problems.append(
                f"case {case_id}: cost {final_costs.get(case_id)} != optimal {fresh.fitness_cost}"
            )
    return problems[:10]


def window_quality(
    events: Sequence[StreamEvent],
    policy_costs: Sequence[float],
    reference_costs: Sequence[float],
    window: int,
) -> tuple[float, float]:
    """Worst window RMSE and F1 of a policy against the baseline.

    As in ``streamcc.evaluation``: each window compares the cases touched
    in it, each at its last event of the window.
    """
    rmse_max, f1_min = 0.0, 1.0
    for start in range(0, len(events), window):
        last: dict[str, int] = {}
        for index in range(start, min(start + window, len(events))):
            last[events[index].case_id] = index
        pairs = [(policy_costs[i], reference_costs[i]) for i in last.values()]
        rmse_max = max(rmse_max, evaluation.rmse(pairs))
        f1_min = min(f1_min, evaluation.f1([(p > 0, b > 0) for p, b in pairs]))
    return rmse_max, f1_min
