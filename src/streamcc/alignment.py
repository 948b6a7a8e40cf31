"""Prefix-alignments of event traces against a Petri net.

Two computation routes: a cheap extension that appends a synchronous move
when the observed activity labels a transition enabled in the current
marking, and an A*-style shortest-path search over the synchronous
product for everything else. The search goal is "all trace events
explained"; the model part does not have to reach the final marking.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from itertools import count
from typing import Sequence

from .errors import SearchBudgetExceeded
from .petri import ActivityLabel, Marking, PetriNet

DEFAULT_SEARCH_BUDGET = 1_000_000

# An event reference is any stream-level identifier (arrival index, event id).
EventRef = object


class MoveKind(Enum):
    SYNCHRONOUS = "synchronous"
    LOG = "log"
    MODEL = "model"
    SILENT_MODEL = "silent_model"


# Expansion preference for equal-cost paths: sync > silent > model > log.
_KIND_RANK = {
    MoveKind.SYNCHRONOUS: 0,
    MoveKind.SILENT_MODEL: 1,
    MoveKind.MODEL: 2,
    MoveKind.LOG: 3,
}


@dataclass(frozen=True)
class Move:
    """One alignment move; field presence depends on the kind."""

    kind: MoveKind
    activity: ActivityLabel | None = None
    transition: str | None = None
    event_ref: EventRef | None = None

    def __post_init__(self) -> None:
        if self.kind in (MoveKind.SYNCHRONOUS, MoveKind.LOG) and self.activity is None:
            raise ValueError(f"{self.kind.value} move requires an activity")
        if self.kind is MoveKind.LOG and self.transition is not None:
            raise ValueError("log move cannot name a transition")
        if self.kind in (MoveKind.SYNCHRONOUS, MoveKind.MODEL, MoveKind.SILENT_MODEL):
            if self.transition is None:
                raise ValueError(f"{self.kind.value} move requires a transition")
        if self.kind in (MoveKind.MODEL, MoveKind.SILENT_MODEL) and self.activity is not None:
            raise ValueError(f"{self.kind.value} move cannot carry an activity")

    @classmethod
    def sync(cls, activity: ActivityLabel, transition: str, event_ref: EventRef | None = None) -> "Move":
        return cls(MoveKind.SYNCHRONOUS, activity, transition, event_ref)

    @classmethod
    def log(cls, activity: ActivityLabel, event_ref: EventRef | None = None) -> "Move":
        return cls(MoveKind.LOG, activity, None, event_ref)

    @classmethod
    def model(cls, transition: str) -> "Move":
        return cls(MoveKind.MODEL, None, transition)

    @classmethod
    def silent(cls, transition: str) -> "Move":
        return cls(MoveKind.SILENT_MODEL, None, transition)

    def consumes_event(self) -> bool:
        return self.kind in (MoveKind.SYNCHRONOUS, MoveKind.LOG)


@dataclass(frozen=True)
class CostModel:
    """Per-move-kind costs; defaults follow the usual unit cost convention."""

    sync_cost: float = 0.0
    log_cost: float = 1.0
    model_cost: float = 1.0
    silent_model_cost: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sync_cost", "log_cost", "model_cost", "silent_model_cost"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class SummaryState:
    """Single special state standing in for a forgotten prefix.

    Holds the marking the forgotten moves reached and their cumulative
    cost; occupies one state slot in memory accounting.
    """

    kappa_o: float
    carry_marking: Marking

    def __post_init__(self) -> None:
        if self.kappa_o < 0:
            raise ValueError("kappa_o must be non-negative")


@dataclass(frozen=True)
class AlignmentState:
    """A move stored with its cost and the marking it reaches."""

    move: Move
    move_cost: float
    marking_after: Marking


@dataclass(frozen=True)
class PrefixAlignment:
    """Ordered alignment states, optionally led by a summary state.

    ``base_marking`` is the marking from which the first state proceeds:
    the net's initial marking for fresh cases, or the carry-forward
    marking when a summary is present. ``moves_cost`` is the sum of the
    states' move costs, added left to right; it is computed from
    ``states`` when omitted, and :meth:`append` and :meth:`with_summary`
    carry it forward instead of summing again.
    """

    base_marking: Marking
    states: tuple[AlignmentState, ...] = ()
    summary: SummaryState | None = None
    moves_cost: float = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.moves_cost is None:
            total = 0
            for s in self.states:
                total += s.move_cost
            object.__setattr__(self, "moves_cost", total)

    @classmethod
    def empty(cls, start: Marking) -> "PrefixAlignment":
        return cls(base_marking=start)

    @classmethod
    def from_summary(cls, summary: SummaryState) -> "PrefixAlignment":
        return cls(base_marking=summary.carry_marking, summary=summary)

    @property
    def fitness_cost(self) -> float:
        """Sum of all move costs, including the summary's carried cost."""
        carried = self.summary.kappa_o if self.summary is not None else 0.0
        return carried + self.moves_cost

    @property
    def current_marking(self) -> Marking:
        return self.states[-1].marking_after if self.states else self.base_marking

    @property
    def state_count(self) -> int:
        """Number of stored states; a summary counts as one."""
        return len(self.states) + (1 if self.summary is not None else 0)

    def log_projection(self) -> tuple[tuple[ActivityLabel, EventRef | None], ...]:
        """Activities of the event-consuming moves, in order, with their refs."""
        return tuple(
            (s.move.activity, s.move.event_ref) for s in self.states if s.move.consumes_event()
        )

    def append(self, move: Move, move_cost: float, marking_after: Marking) -> "PrefixAlignment":
        state = AlignmentState(move, move_cost, marking_after)
        return PrefixAlignment(
            self.base_marking, self.states + (state,), self.summary, self.moves_cost + move_cost
        )

    def with_summary(self, summary: SummaryState | None) -> "PrefixAlignment":
        return PrefixAlignment(self.base_marking, self.states, summary, self.moves_cost)


def extend_model_semantics(
    net: PetriNet,
    pa: PrefixAlignment,
    activity: ActivityLabel,
    event_ref: EventRef | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> PrefixAlignment | None:
    """Append a synchronous move if the activity is directly enabled.

    Returns the extended alignment, or None when no transition labeled
    ``activity`` is enabled in the current marking (no tau-closure is
    explored). When several enabled transitions share the label, the
    lowest transition id fires.
    """
    marking = pa.current_marking
    candidates = [
        t for t in net.transitions_labeled(activity) if net.is_enabled(marking, t)
    ]
    if not candidates:
        return None
    transition = min(candidates)
    move = Move.sync(activity, transition, event_ref)
    return pa.append(move, cost_model.sync_cost, net.fire(marking, transition))


def shortest_path_prefix_alignment(
    net: PetriNet,
    start: Marking,
    trace: Sequence[tuple[ActivityLabel, EventRef | None] | ActivityLabel],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> PrefixAlignment:
    """Minimum-cost prefix-alignment of ``trace`` starting from ``start``.

    A* search over the synchronous-product state space (marking, trace
    position) with the admissible heuristic h = remaining events x
    min(sync_cost, log_cost). The result
    explains every trace event; its model projection is firable from
    ``start``. Ties are broken by move preference (sync > silent > model
    > log), then by transition id, then by discovery order, so identical
    inputs yield identical alignments.

    Raises SearchBudgetExceeded after ``budget`` node expansions.
    """
    events = _normalize_trace(trace)
    if not events:
        raise ValueError("trace must be non-empty")
    total = len(events)
    h_unit = min(cost_model.sync_cost, cost_model.log_cost)

    # closed: (marking, pos) -> (parent key, state reached from parent) for
    # path reconstruction; None marks the start node.
    closed: dict[tuple[Marking, int], tuple[tuple[Marking, int], AlignmentState] | None] = {}
    ticket = count()
    start_key = (start, 0)
    frontier: list[tuple] = [(h_unit * total, 0, next(ticket), 0.0, start_key, None)]
    expansions = 0

    while frontier:
        _, _, _, g, key, via = heapq.heappop(frontier)
        if key in closed:
            continue
        closed[key] = via
        marking, pos = key
        if pos == total:
            return _reconstruct(start, start_key, key, closed)
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(budget)

        activity, ref = events[pos]
        enabled = sorted(net.enabled_transitions(marking))

        def push(move: Move, step: float, next_marking: Marking, next_pos: int) -> None:
            next_key = (next_marking, next_pos)
            if next_key in closed:
                return
            ng = g + step
            nf = ng + h_unit * (total - next_pos)
            state = AlignmentState(move, step, next_marking)
            heapq.heappush(
                frontier, (nf, _KIND_RANK[move.kind], next(ticket), ng, next_key, (key, state))
            )

        for t in enabled:
            if net.label(t) == activity:
                push(Move.sync(activity, t, ref), cost_model.sync_cost, net.fire(marking, t), pos + 1)
        for t in enabled:
            if net.is_silent(t):
                push(Move.silent(t), cost_model.silent_model_cost, net.fire(marking, t), pos)
        for t in enabled:
            if not net.is_silent(t):
                push(Move.model(t), cost_model.model_cost, net.fire(marking, t), pos)
        push(Move.log(activity, ref), cost_model.log_cost, marking, pos + 1)

    raise SearchBudgetExceeded(budget)  # unreachable: the all-log path always exists


def _normalize_trace(
    trace: Sequence[tuple[ActivityLabel, EventRef | None] | ActivityLabel],
) -> tuple[tuple[ActivityLabel, EventRef | None], ...]:
    events = []
    for item in trace:
        if isinstance(item, str):
            events.append((item, None))
        else:
            activity, ref = item
            events.append((activity, ref))
    return tuple(events)


def _reconstruct(
    start: Marking,
    start_key: tuple[Marking, int],
    goal_key: tuple[Marking, int],
    closed: dict,
) -> PrefixAlignment:
    states: list[AlignmentState] = []
    key = goal_key
    while key != start_key:
        parent, state = closed[key]
        states.append(state)
        key = parent
    states.reverse()
    return PrefixAlignment(base_marking=start, states=tuple(states))
