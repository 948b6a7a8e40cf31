"""Prefix-alignments of event traces against a Petri net.

Two computation routes: a cheap extension that appends a synchronous move
when the observed activity labels a transition enabled in the current
marking, and an A*-style shortest-path search over the synchronous
product for everything else. The search goal is "all trace events
explained"; the model part does not have to reach the final marking.

The search uses two heuristics for two jobs. Entries are ordered by
g + ``h_unit`` x remaining events, with ``h_unit`` = min(sync_cost,
log_cost), a consistent order for every cost model. Given an upper bound
on the optimum, entries are also pruned: one whose g plus a consistent
lookahead h exceeds the bound (by more than a slack for rounding) is
never pushed. Such an entry lies on no optimal path, and an entry for an
optimal-path key that passes through it arrives with a larger g, so it
would have popped later anyway: the result is the unbounded search's.
The engine passes the cost of the case's current alignment plus one log
move, which is feasible over the same trace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import count
from typing import Iterable, Sequence

from .errors import BoundBelowOptimum, SearchBudgetExceeded
from .petri import ActivityLabel, Marking, PetriNet

DEFAULT_SEARCH_BUDGET = 1_000_000

# Relative slack on a search's upper bound, far above the rounding error of
# its cost sums: pruning less than the bound allows never changes a result.
_BOUND_SLACK = 1e-9

# An event reference is any stream-level identifier (arrival index, event id).
EventRef = object


class MoveKind(Enum):
    SYNCHRONOUS = "synchronous"
    LOG = "log"
    MODEL = "model"
    SILENT_MODEL = "silent_model"

    # members are singletons; Enum's default hashes the name in Python on every lookup
    __hash__ = object.__hash__


# Expansion preference for equal-cost paths: sync > silent > model > log.
# A kind's rank in the search is its index here.
_KINDS_BY_RANK = (MoveKind.SYNCHRONOUS, MoveKind.SILENT_MODEL, MoveKind.MODEL, MoveKind.LOG)
_SYNC, _SILENT, _MODEL, _LOG = range(4)

# The kinds that consume a trace event.
_CONSUMING = (MoveKind.SYNCHRONOUS, MoveKind.LOG)

# The one shape each kind allows: (carries an activity, names a transition).
_MOVE_SHAPES = {
    MoveKind.SYNCHRONOUS: (True, True),
    MoveKind.LOG: (True, False),
    MoveKind.MODEL: (False, True),
    MoveKind.SILENT_MODEL: (False, True),
}


def _check_shape(kind: MoveKind, activity: ActivityLabel | None, transition: str | None) -> None:
    """Raise ValueError unless the fields have the one shape ``kind`` allows."""
    shape = _MOVE_SHAPES.get(kind)
    if shape is None:
        raise ValueError(f"unknown move kind {kind!r}")
    if shape != (activity is not None, transition is not None):
        has_activity = "an activity" if shape[0] else "no activity"
        has_transition = "a transition" if shape[1] else "no transition"
        raise ValueError(f"a {kind.value} move carries {has_activity} and names {has_transition}")


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each of a slotted dataclass's field slots, in field order.

    A frozen dataclass's generated ``__init__`` stores each field through
    ``object.__setattr__`` with the field's name. On a 2-CPU x86-64 Xeon
    with CPython 3.11 that made one ``AlignmentState`` cost 2.3-2.7 us and
    one ``EventOutcome`` 1.7-2.4 us, and an event builds one of each;
    through these setters they cost 1.2 us and 1.2-1.4 us. So the values
    built on every event set their slots through them in a hand-written
    ``__init__``, and keep the generated frozen ``__setattr__``.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True)
class Move:
    """One alignment move; field presence depends on the kind.

    A stored :class:`AlignmentState` carries these four fields itself;
    its ``move`` property builds a ``Move`` for callers that want one.
    """

    kind: MoveKind
    activity: ActivityLabel | None = None
    transition: str | None = None
    event_ref: EventRef | None = None

    def __post_init__(self) -> None:
        _check_shape(self.kind, self.activity, self.transition)


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


@dataclass(frozen=True, slots=True)
class SummaryState:
    """R_C's entry: the one slot a forgotten case keeps in the summary repository.

    Holds the marking the case's forgotten moves reached and their
    cumulative cost; :meth:`PrefixAlignment.from_summary` resumes the case
    from it.
    """

    kappa_o: float
    carry_marking: Marking

    def __post_init__(self) -> None:
        if self.kappa_o < 0:
            raise ValueError("kappa_o must be non-negative")


@dataclass(frozen=True, slots=True, repr=False, init=False)
class AlignmentState:
    """One alignment step: a move's fields, its cost and the marking it reaches.

    The move is not a separate object, so a stored step is one slotted
    object. The repr still nests the move,
    ``AlignmentState(move=Move(...), move_cost=..., marking_after=...)``,
    because digests of search results hash that text.
    """

    kind: MoveKind
    activity: ActivityLabel | None
    transition: str | None
    event_ref: EventRef | None
    move_cost: float
    marking_after: Marking

    def __init__(
        self,
        kind: MoveKind,
        activity: ActivityLabel | None,
        transition: str | None,
        event_ref: EventRef | None,
        move_cost: float,
        marking_after: Marking,
    ) -> None:
        _check_shape(kind, activity, transition)
        set_kind, set_activity, set_transition, set_event_ref, set_move_cost, set_marking_after = _STEP_SETTERS
        set_kind(self, kind)
        set_activity(self, activity)
        set_transition(self, transition)
        set_event_ref(self, event_ref)
        set_move_cost(self, move_cost)
        set_marking_after(self, marking_after)

    @property
    def move(self) -> Move:
        return Move(self.kind, self.activity, self.transition, self.event_ref)

    def __repr__(self) -> str:
        return (
            f"AlignmentState(move=Move(kind={self.kind!r}, activity={self.activity!r}, "
            f"transition={self.transition!r}, event_ref={self.event_ref!r}), "
            f"move_cost={self.move_cost!r}, marking_after={self.marking_after!r})"
        )


_STEP_SETTERS = slot_setters(AlignmentState)


def fold_move_costs(states: Iterable[AlignmentState]) -> float:
    """The states' move costs added left to right, the order every cost sum uses.

    Builtin ``sum`` adds floats with compensation from Python 3.12 on, so
    it can differ from this fold, and from the search's running g, in the
    last bit.
    """
    total = 0
    for s in states:
        total += s.move_cost
    return total


@dataclass(frozen=True, slots=True, init=False)
class PrefixAlignment:
    """Ordered alignment states, optionally led by a summary state.

    ``base_marking`` is the marking from which the first state proceeds:
    the net's initial marking for fresh cases, or the carry-forward
    marking the forgotten prefix reached when a summary is present.
    ``summary`` is that prefix's cost (kappa_o), or None when nothing was
    forgotten; together with ``base_marking`` it is the summary state,
    the one slot that holds the position and the cost.
    ``moves_cost`` is the sum of the states' move costs
    (:func:`fold_move_costs`); it is computed from
    ``states`` when omitted, and :meth:`empty`, :meth:`from_summary`,
    :meth:`append`, :meth:`with_summary` and the search pass it in
    instead of summing again.
    """

    base_marking: Marking
    states: tuple[AlignmentState, ...] = ()
    summary: float | None = None
    moves_cost: float = field(default=None, repr=False, compare=False)  # type: ignore[assignment]

    def __init__(
        self,
        base_marking: Marking,
        states: tuple[AlignmentState, ...] = (),
        summary: float | None = None,
        moves_cost: float | None = None,
    ) -> None:
        set_base_marking, set_states, set_summary, set_moves_cost = _PREFIX_SETTERS
        set_base_marking(self, base_marking)
        set_states(self, states)
        set_summary(self, summary)
        set_moves_cost(self, fold_move_costs(states) if moves_cost is None else moves_cost)

    @classmethod
    def empty(cls, start: Marking) -> "PrefixAlignment":
        return cls(start, (), None, 0)

    @classmethod
    def from_summary(cls, summary: SummaryState) -> "PrefixAlignment":
        return cls(summary.carry_marking, (), summary.kappa_o, 0)

    @property
    def carried_cost(self) -> float:
        """Cost of the forgotten prefix the summary carries (0 without one)."""
        return self.summary if self.summary is not None else 0.0

    @property
    def fitness_cost(self) -> float:
        """Sum of all move costs, including the summary's carried cost."""
        return self.carried_cost + self.moves_cost

    @property
    def current_marking(self) -> Marking:
        return self.states[-1].marking_after if self.states else self.base_marking

    @property
    def state_count(self) -> int:
        """Number of stored states; a summary counts as one."""
        return len(self.states) + (1 if self.summary is not None else 0)

    def log_projection(self) -> tuple[tuple[ActivityLabel, EventRef | None], ...]:
        """Activities of the event-consuming moves, in order, with their refs."""
        return tuple((s.activity, s.event_ref) for s in self.states if s.kind in _CONSUMING)

    def append(self, state: AlignmentState) -> "PrefixAlignment":
        return PrefixAlignment(
            self.base_marking, self.states + (state,), self.summary, self.moves_cost + state.move_cost
        )

    def with_summary(self, summary: float | None) -> "PrefixAlignment":
        return PrefixAlignment(self.base_marking, self.states, summary, self.moves_cost)


_PREFIX_SETTERS = slot_setters(PrefixAlignment)


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
    successors = net.successors(pa.current_marking)
    for transition in net.transitions_labeled(activity):
        reached = successors.get(transition)
        if reached is not None:
            return pa.append(
                AlignmentState(
                    MoveKind.SYNCHRONOUS, activity, transition, event_ref, cost_model.sync_cost, reached
                )
            )
    return None


def shortest_path_prefix_alignment(
    net: PetriNet,
    start: Marking,
    trace: Sequence[tuple[ActivityLabel, EventRef | None] | ActivityLabel],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    *,
    budget: int = DEFAULT_SEARCH_BUDGET,
    upper_bound: float | None = None,
) -> PrefixAlignment:
    """Minimum-cost prefix-alignment of ``trace`` starting from ``start``.

    Search over the synchronous-product state space (marking, trace
    position). Entries pop in order of f = g + ``h_unit`` x remaining
    events, where ``h_unit`` = min(sync_cost, log_cost), then by move
    preference (sync > silent > model > log), then by discovery order
    (transition id order within one expansion), so identical inputs yield
    identical alignments. The result explains
    every trace event; its model projection is firable from ``start``.

    ``upper_bound`` is a cost some alignment of ``trace`` from ``start``
    does not exceed. The search then drops every entry whose g plus a
    consistent lookahead h exceeds the bound by more than a rounding
    slack of 1e-9 x max(1, bound). h charges ``log_cost`` for each
    remaining event whose label no transition carries, plus
    min(log_cost, model_cost) when the next event's label is carried but
    the marking enables neither a transition with that label nor a silent
    one. Dropped entries take no ticket and the order above stays, so the
    result is the one the unbounded search returns, whatever the costs.

    Raises SearchBudgetExceeded after ``budget`` node expansions, and
    BoundBelowOptimum when no alignment is within ``upper_bound``.
    """
    events = _normalize_trace(trace)
    if not events:
        raise ValueError("trace must be non-empty")
    total = len(events)
    h_unit = min(cost_model.sync_cost, cost_model.log_cost)
    step_costs = (  # by kind rank
        cost_model.sync_cost, cost_model.silent_model_cost, cost_model.model_cost, cost_model.log_cost
    )
    prune = upper_bound is not None
    if prune:
        limit = upper_bound + _BOUND_SLACK * max(1.0, abs(upper_bound))
        lookahead = min(cost_model.log_cost, cost_model.model_cost)
        forced = _forced_log_costs(net, events, cost_model.log_cost)

    # Entries are (f, kind rank, ticket, g, marking, pos, parent marking,
    # transition); with h_unit 0, f is g's own float. closed[pos] maps each
    # marking expanded at trace position pos to the entry that reached it.
    # A position's dict is made by the first expansion that can push to it,
    # so a search pays for no position it never reaches. A move's parent
    # sits at its own position, or one before if the move consumes an
    # event, and its cost is step_costs[rank]: only _reconstruct turns the
    # returned path into moves.
    closed: list[dict[Marking, tuple] | None] = [None] * (total + 1)
    closed[0] = {}
    ticket = count()
    frontier: list[tuple] = [(h_unit * total, 0, next(ticket), 0.0, start, 0, None, None)]
    expansions = 0

    def push(seen: dict, rank: int, transition: str | None, next_marking: Marking, next_pos: int) -> None:
        if next_marking in seen:
            return
        ng = g + step_costs[rank]
        if prune:
            gh = ng + forced[next_pos]
            if gh > limit:
                return
            if gh + lookahead > limit and next_pos < total:
                if _only_model_or_log(net, next_marking, events[next_pos][0]):
                    return
        nf = ng + h_unit * (total - next_pos) if h_unit else ng
        heapq.heappush(frontier, (nf, rank, next(ticket), ng, next_marking, next_pos, marking, transition))

    while frontier:
        entry = heapq.heappop(frontier)
        marking = entry[4]
        pos = entry[5]
        if pos == total:
            return _reconstruct(start, entry, closed, events, step_costs)
        here = closed[pos]
        if marking in here:
            continue
        here[marking] = entry
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(budget)

        ahead = closed[pos + 1]
        if ahead is None:
            ahead = closed[pos + 1] = {}
        g = entry[3]
        activity = events[pos][0]
        successors = net.successors(marking)
        # the entry's keys again, one call per expansion: bench/ counts expansions by it
        for t in net.enabled_transitions(marking):
            fired = successors[t]
            label = net.labels.get(t)
            if label is None:
                push(here, _SILENT, t, fired, pos)
                continue
            if label == activity:
                push(ahead, _SYNC, t, fired, pos + 1)
            push(here, _MODEL, t, fired, pos)
        push(ahead, _LOG, None, marking, pos + 1)

    # without a bound the all-log path always reaches the goal
    raise BoundBelowOptimum(upper_bound)


def _only_model_or_log(net: PetriNet, marking: Marking, activity: ActivityLabel) -> bool:
    """Whether ``activity`` is carried but ``marking`` enables neither it nor a silent transition."""
    if not net.transitions_labeled(activity):
        return False
    labels = net.labels
    for t in net.successors(marking):
        if labels.get(t, activity) == activity:  # a silent transition matches too
            return False
    return True


def _forced_log_costs(
    net: PetriNet, events: tuple[tuple[ActivityLabel, EventRef | None], ...], log_cost: float
) -> list[float]:
    """``log_cost`` x the events from each position on whose label no transition carries.

    One entry per position, the end of the trace included; all zeros when
    the net carries every label.
    """
    counts = [0] * (len(events) + 1)
    for pos in range(len(events) - 1, -1, -1):
        counts[pos] = counts[pos + 1] + (not net.transitions_labeled(events[pos][0]))
    return [log_cost * n for n in counts]


def _normalize_trace(
    trace: Sequence[tuple[ActivityLabel, EventRef | None] | ActivityLabel],
) -> tuple[tuple[ActivityLabel, EventRef | None], ...]:
    events = []
    for item in trace:
        activity, ref = (item, None) if isinstance(item, str) else item
        events.append((activity, ref))
    return tuple(events)


def _reconstruct(
    start: Marking,
    goal: tuple,
    closed: list[dict[Marking, tuple] | None],
    events: tuple[tuple[ActivityLabel, EventRef | None], ...],
    step_costs: tuple[float, float, float, float],
) -> PrefixAlignment:
    states: list[AlignmentState] = []
    entry = goal
    while True:
        _, rank, _, _, marking, pos, parent, transition = entry
        if parent is None:  # the start entry
            break
        if rank == _SYNC or rank == _LOG:
            # a move that advances the position consumes the event it passed
            pos -= 1
            activity, ref = events[pos]
        else:
            activity = ref = None
        states.append(AlignmentState(_KINDS_BY_RANK[rank], activity, transition, ref, step_costs[rank], marking))
        entry = closed[pos][parent]
    states.reverse()
    # the goal's g added the step costs left to right, as fold_move_costs does
    return PrefixAlignment(start, tuple(states), moves_cost=goal[3])
