"""Independent oracles and randomized fixtures used across the test suite.

The reference scans recompute from the store what the engine keeps
incrementally: its stored-slot gauge and its forgetting index's victim.
The brute-force alignment cost enumerates every move sequence directly
from the net's firing semantics; it shares no code with the search under
test. Random nets follow a fixed recipe: an entry transition, a choice
of two branches (one bypassing), a parallel split/join pair, and one
loop back to the choice. The CSV oracle is the log parser as it was
written over ``csv.DictReader``. The lockstep replay holds a lossy
policy's costs against the baseline's, event by event, and the witness
walk holds a stored alignment's moves to the net's firing rule.
"""

from __future__ import annotations

import csv
import random
from pathlib import Path
from typing import IO

from streamcc import DEFAULT_COST_MODEL, ConformanceEngine, CostModel, PetriNet, Policy, PolicyConfig
from streamcc.alignment import AlignmentState, MoveKind, PrefixAlignment, fold_move_costs
from streamcc.errors import ParseError, TimestampError
from streamcc.petri import Marking
from streamcc.policies import CaseStore, EventOutcome, SummaryRepository, _forgetting_rank
from streamcc.streams import CsvColumns, Event, EventLog, StreamEvent, parse_timestamp

ALPHABET = ["A", "B", "C", "D", "E", "F", "G", "H", "K"]


def sync_step(
    activity: str, transition: str, event_ref: object, move_cost: float, marking_after: Marking
) -> AlignmentState:
    """A synchronous alignment step, for building alignments by hand."""
    return AlignmentState(
        MoveKind.SYNCHRONOUS, activity, transition, event_ref, move_cost, marking_after
    )


def log_step(
    activity: str, move_cost: float, marking_after: Marking, event_ref: object = None
) -> AlignmentState:
    """A log-move step, for building alignments by hand."""
    return AlignmentState(MoveKind.LOG, activity, None, event_ref, move_cost, marking_after)


def consumes_event(state: AlignmentState) -> bool:
    """Whether the step's move consumes a trace event (a synchronous or a log move)."""
    return state.kind in (MoveKind.SYNCHRONOUS, MoveKind.LOG)


def stored_state_count(store: CaseStore, repo: SummaryRepository | None = None) -> int:
    """Total states held in memory; summaries count one state each.

    A full scan: the reference that :attr:`ConformanceEngine.stored_state_count`
    keeps up to date incrementally.
    """
    total = sum(r.prefix_alignment.state_count for r in store.records())
    if repo is not None:
        total += len(repo)
    return total


def select_forget_victim(store: CaseStore, last_arrival: dict[str, int]) -> str:
    """Pick the case to forget, in a single pass over the store.

    Preference order: (1) a compliant monuple (single event explained by
    one synchronous move from the initial marking) ends the scan
    immediately; (2) cases whose forgotten prefix already carries cost;
    (3) fully conformant cases; (4) cases whose retained states are not
    fitting. Ties fall to the least recently updated case, then the
    smallest case id. ``last_arrival`` maps each stored case to the
    arrival index of its last event the engine processed without error:
    the caller tracks it from the stream, so the scan reads nothing of
    the engine's forgetting index.
    """
    if len(store) == 0:
        raise ValueError("cannot select a victim from an empty store")
    best: tuple[int, int, str] | None = None
    for record in store.records():
        rank = _forgetting_rank(record.prefix_alignment)
        if rank == 1:
            return record.case_id
        key = (rank, last_arrival[record.case_id], record.case_id)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


def dictreader_csv_log(
    source: str | Path | IO[str],
    columns: CsvColumns = CsvColumns(),
) -> EventLog:
    """Read a headered CSV of events; event ids are assigned sequentially.

    The reference for :func:`streamcc.streams.parse_csv_log`, which reads
    each cell as this reads it through ``csv.DictReader``, one dict per row.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return dictreader_csv_log(handle, columns)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ParseError("CSV log has no header row")
    missing = [
        c for c in (columns.case_id, columns.activity, columns.timestamp)
        if c not in reader.fieldnames
    ]
    if missing:
        raise ParseError(f"CSV log is missing columns {missing}; found {reader.fieldnames}")
    events = []
    for row_number, row in enumerate(reader, start=1):
        case_id = (row.get(columns.case_id) or "").strip()
        activity = (row.get(columns.activity) or "").strip()
        raw_ts = (row.get(columns.timestamp) or "").strip()
        if not case_id or not activity:
            raise ParseError(f"row {row_number}: empty case id or activity")
        try:
            timestamp = parse_timestamp(raw_ts)
        except TimestampError as exc:
            raise TimestampError(f"row {row_number}: {exc}") from exc
        events.append(Event(len(events) + 1, case_id, activity, timestamp))
    return EventLog(tuple(events))


def peak_concurrent_cases(log: EventLog) -> int:
    """Largest number of cases simultaneously between first and last event."""
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    for position, event in enumerate(log.events):
        first.setdefault(event.case_id, position)
        last[event.case_id] = position
    delta = [0] * (len(log.events) + 1)
    for case, opened in first.items():
        delta[opened] += 1
        delta[last[case] + 1] -= 1
    peak = 0
    current = 0
    for change in delta:
        current += change
        peak = max(peak, current)
    return peak


def replay_outcomes(engine: ConformanceEngine, events) -> list[EventOutcome]:
    """Process a stream of :class:`StreamEvent` in order; returns the outcomes."""
    return [engine.process(e.case_id, e.activity, e.arrival_index) for e in events]


def checked_replay(engine: ConformanceEngine, events: list[StreamEvent]) -> list[EventOutcome]:
    """Process a stream, asserting the engine's memory bounds after every event.

    Also checks the engine's slot gauge against the reference scan, and
    that every stored alignment without a summary explains each event of
    its case once, in arrival order (the forgetting rank relies on it).
    """
    w = engine.config.w
    n = engine.config.n
    outcomes = []
    arrivals: dict[str, list[int]] = {}
    for event in events:
        outcomes.append(engine.process(event.case_id, event.activity, event.arrival_index))
        arrivals.setdefault(event.case_id, []).append(event.arrival_index)
        for record in engine.store.records():
            pa = record.prefix_alignment
            if pa.summary is None:
                refs = [ref for _, ref in pa.log_projection()]
                assert refs == arrivals[record.case_id], f"case {record.case_id} explains {refs}"
        if w is not None:
            for record in engine.store.records():
                assert record.prefix_alignment.state_count <= max(w, 2), (
                    f"case {record.case_id} holds {record.prefix_alignment.state_count} states"
                )
        if n is not None:
            assert len(engine.store) <= n
        if w is not None and n is not None:
            limit = n * max(w, 2) + len(engine.repo)
            assert stored_state_count(engine.store, engine.repo) <= limit
        for case_id, _ in engine.repo.items():
            assert case_id not in engine.store, f"case {case_id} in both stores"
        assert engine.stored_state_count == stored_state_count(engine.store, engine.repo)
    return outcomes


def below_baseline(
    net: PetriNet, events: list[StreamEvent], configs: list[PolicyConfig]
) -> list[tuple[str, int, float, float]]:
    """Replay the baseline and each policy in lockstep; every event a policy costs less than the baseline.

    A policy's case holds a summary (the cost of the prefix it forgot
    and the marking that prefix reached) and the states it kept after
    it, which together align the case's whole prefix, so its cost is
    never below the optimal cost the baseline holds. The baseline's cost
    is optimal when ``sync_cost <= log_cost``, which is required here.
    Each problem is ``(policy label, arrival index, policy cost,
    baseline cost)``, and a cost counts as below when it is more than
    the search's relative slack, 1e-9 x max(1, baseline cost), under.
    The configs must share one cost model, which the baseline uses too.
    """
    (cost_model,) = {config.cost_model for config in configs}
    assert cost_model.sync_cost <= cost_model.log_cost, "the baseline's cost need not be optimal"
    baseline = ConformanceEngine(net, PolicyConfig(Policy.BASELINE, cost_model=cost_model))
    engines = [(config.label, ConformanceEngine(net, config).process) for config in configs]
    problems = []
    for event in events:
        case_id, activity, index = event.case_id, event.activity, event.arrival_index
        base = baseline.process(case_id, activity).effective_cost
        floor = base - 1e-9 * max(1.0, base)
        for label, process in engines:
            cost = process(case_id, activity).effective_cost
            if cost < floor:
                problems.append((label, index, cost, base))
    return problems


def witness_problems(net: PetriNet, pa: PrefixAlignment) -> list[str]:
    """What keeps ``pa`` from being a walk of ``net`` from its ``base_marking``; empty for a witness.

    A case's summary plus its retained states align the case's whole
    prefix, so the retained states must be moves the net allows from the
    marking the summary reached. Walking from ``pa.base_marking``, each
    synchronous, model or silent move fires its transition through
    ``net.successors`` and reaches its ``marking_after``; a synchronous
    move's activity is its transition's label, a model move's transition
    is labeled and a silent move's is not; a log move keeps the marking.
    ``moves_cost`` is the states' costs folded left to right.
    """
    problems = []
    marking = pa.base_marking
    for index, state in enumerate(pa.states):
        where = f"state {index} ({state.kind.value} {state.transition or state.activity})"
        if state.kind is MoveKind.LOG:
            reached = marking
        else:
            reached = net.successors(marking).get(state.transition)
            if reached is None:
                problems.append(f"{where}: not enabled at {marking}")
            label = net.labels.get(state.transition)
            if state.kind is MoveKind.SYNCHRONOUS:
                if label != state.activity:
                    problems.append(f"{where}: the transition is labeled {label!r}")
            elif (label is None) != (state.kind is MoveKind.SILENT_MODEL):
                problems.append(f"{where}: the transition's label is {label!r}")
        if reached is not None and state.marking_after != reached:
            problems.append(f"{where}: reaches {state.marking_after}, not {reached}")
        marking = state.marking_after
    if pa.moves_cost != fold_move_costs(pa.states):
        problems.append(f"moves_cost {pa.moves_cost!r}, states fold to {fold_move_costs(pa.states)!r}")
    return problems


def brute_force_min_cost(
    net: PetriNet,
    start: Marking,
    trace: list[str],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Exact minimum prefix-alignment cost by exhaustive enumeration.

    Depth-first over all move sequences, pruning only (a) branches whose
    accumulated cost already reaches the best known total (all move costs
    are non-negative) and (b) revisits of a (marking, position) pair on
    the current path (a cycle never lowers the cost of reaching it).
    Starts from the always-available all-log-moves alignment.
    """
    best = [cost_model.log_cost * len(trace)]

    def explore(marking: Marking, pos: int, cost: float, on_path: set) -> None:
        if cost >= best[0]:
            return
        if pos == len(trace):
            best[0] = cost
            return
        key = (marking, pos)
        if key in on_path:
            return
        on_path.add(key)
        activity = trace[pos]
        explore(marking, pos + 1, cost + cost_model.log_cost, on_path)
        for t in sorted(net.enabled_transitions(marking)):
            fired = net.fire(marking, t)
            label = net.labels.get(t)
            if label == activity:
                explore(fired, pos + 1, cost + cost_model.sync_cost, on_path)
            if label is None:
                explore(fired, pos, cost + cost_model.silent_model_cost, on_path)
            else:
                explore(fired, pos, cost + cost_model.model_cost, on_path)
        on_path.discard(key)

    explore(start, 0, 0.0, set())
    return best[0]


def random_net(rng: random.Random) -> PetriNet:
    """A small net with a choice, a parallel split/join and a loop.

    Eight transitions: entry t1, choice t2 (into the parallel block) vs
    t3 (bypass), split t4, parallel t5/t6, join t7, loop t8. Labels are
    drawn from a small alphabet; the choice pair may share a label, and
    the loop transition may be silent.
    """
    labels = {}
    labels["t1"] = rng.choice(ALPHABET)
    labels["t2"] = rng.choice(ALPHABET)
    labels["t3"] = labels["t2"] if rng.random() < 0.3 else rng.choice(ALPHABET)
    for t in ("t4", "t5", "t6"):
        labels[t] = rng.choice(ALPHABET)
    labels["t7"] = rng.choice(ALPHABET)
    labels["t8"] = None if rng.random() < 0.5 else rng.choice(ALPHABET)
    return PetriNet.build(
        places=["p0", "p1", "p2", "q1", "q2", "q3", "q4", "p3"],
        transitions=labels,
        arcs=[
            ("p0", "t1"),
            ("t1", "p1"),
            ("p1", "t2"),
            ("t2", "p2"),
            ("p1", "t3"),
            ("t3", "p3"),
            ("p2", "t4"),
            ("t4", "q1"),
            ("t4", "q2"),
            ("q1", "t5"),
            ("t5", "q3"),
            ("q2", "t6"),
            ("t6", "q4"),
            ("q3", "t7"),
            ("q4", "t7"),
            ("t7", "p3"),
            ("p3", "t8"),
            ("t8", "p1"),
        ],
        initial={"p0": 1},
        final={"p3": 1},
        name="random-choice-and-loop",
    )


def random_trace(net: PetriNet, rng: random.Random, max_len: int = 6) -> list[str]:
    """A model walk of visible labels with random noise edits, length 1..max_len."""
    marking = net.initial_marking
    walk: list[str] = []
    while len(walk) < max_len:
        enabled = sorted(net.enabled_transitions(marking))
        if not enabled:
            break
        t = rng.choice(enabled)
        marking = net.fire(marking, t)
        label = net.labels.get(t)
        if label is not None:
            walk.append(label)
    trace = walk[: rng.randint(1, max_len)]
    for _ in range(rng.randint(0, 2)):
        if not trace:
            break
        roll = rng.random()
        pos = rng.randrange(len(trace))
        if roll < 0.3:
            trace[pos] = rng.choice(ALPHABET + ["Z"])
        elif roll < 0.55:
            trace.insert(pos, rng.choice(ALPHABET + ["Z"]))
        elif roll < 0.8 and len(trace) > 1:
            del trace[pos]
        elif pos + 1 < len(trace):
            trace[pos], trace[pos + 1] = trace[pos + 1], trace[pos]
    trace = trace[:max_len]
    if not trace:
        trace = [rng.choice(ALPHABET)]
    return trace
