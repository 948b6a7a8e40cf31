"""Prefix-alignments of event traces against a Petri net.

Two computation routes: a cheap extension that appends a synchronous move
when the observed activity labels a transition enabled in the current
marking, and an A*-style shortest-path search over the synchronous
product for everything else. The search goal is "all trace events
explained"; the model part does not have to reach the final marking.

The extension is one read of the net's synchronous-step table (see
:mod:`streamcc.petri`): two dict lookups, label then marking, and a
check that the stored step's cost is the caller's cost object. Only a
marking the table holds nothing for, or a step stored at another cost,
takes the miss path, :func:`_sync_step`, which reads the successor
entry, finds the lowest enabled transition id with the label, and takes
the step from :func:`_shared_step`. One replay of the benchmark's
parallel-alien workload's 4,500 events misses 1,953 times, once per
entry it stores.

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

The search is one flat loop, because an event the extension cannot
explain pays at least one expansion per event of the case's retained
prefix. The costs, the net's tables and the heap functions are bound
once per search, and the loop pushes from three sites: a synchronous
move, a move that stays at its position (a silent or a model move, which
differ only in cost and kind rank), and a log move. A popped entry is
closed with one ``setdefault``, the marking's successor entry is read
from the net's table once, and the pruning lookahead asks whether a
marking lets an activity through from a per-search memo, which keeps
for each marking it is asked about the labels it lets through, filled
from the successor entry on the marking's first lookup. Apart from a
memo's first lookup of a marking and a marking past the table's cap,
the one Python function an expansion calls is
``net.enabled_transitions(marking)``, whose transitions the loop
iterates: the benchmark's tracer and the tests count expansions by it.
It reads the stored entry itself, so it costs one frame, not two.
An expansion looks markings up about 7 times, and each lookup hashes
in C (see :mod:`streamcc.petri`); a marking's Python ``__eq__`` runs
only when a lookup meets an equal marking that is another object. One
replay of the long-traces benchmark workload's stream made one
``Marking.__eq__`` call for its 30,633 expansions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from itertools import count
from types import MethodType
from typing import Iterable, NamedTuple, Sequence

from . import petri
from .errors import BoundBelowOptimum, SearchBudgetExceeded, check_int, frozen_delattr, frozen_setattr
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
CONSUMING_KINDS = (MoveKind.SYNCHRONOUS, MoveKind.LOG)
_SYNCHRONOUS = MoveKind.SYNCHRONOUS

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


@dataclass(frozen=True)
class CostModel:
    """Per-move-kind costs; defaults follow the usual unit cost convention."""

    sync_cost: float = 0.0
    log_cost: float = 1.0
    model_cost: float = 1.0
    silent_model_cost: float = 0.0

    def __post_init__(self) -> None:
        for name in ("sync_cost", "log_cost", "model_cost", "silent_model_cost"):
            cost = getattr(self, name)
            if not cost >= 0:  # NaN too; so every cost sum, a summary's kappa_o included, is >= 0
                raise ValueError(f"{name} must be non-negative, got {cost!r}")


DEFAULT_COST_MODEL = CostModel()


class _AlignmentStateFields(NamedTuple):
    """The fields of :class:`AlignmentState`, in order."""

    kind: MoveKind
    activity: ActivityLabel | None
    transition: str | None
    event_ref: EventRef | None
    move_cost: float
    marking_after: Marking


class AlignmentState(_AlignmentStateFields):
    """One alignment step: a move's fields, its cost and the marking it reaches.

    A frozen named tuple, like :class:`PrefixAlignment`: ``__new__``
    checks the move's shape, and assigning or deleting a field raises
    ``dataclasses.FrozenInstanceError``. The move is no object of its
    own. The repr prints the move's fields nested,
    ``AlignmentState(move=Move(kind=..., ...), move_cost=..., marking_after=...)``,
    because digests of search results hash that text. A step with no
    ``event_ref`` is a value a net shares: the extension and the search
    take it from the net's step table (see :func:`_shared_step`), the
    extension through its synchronous-step table (see :func:`_sync_step`),
    and the alignment keeps its events' refs in ``PrefixAlignment.refs``.
    """

    __slots__ = ()
    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    def __new__(
        cls,
        kind: MoveKind,
        activity: ActivityLabel | None,
        transition: str | None,
        event_ref: EventRef | None,
        move_cost: float,
        marking_after: Marking,
    ) -> "AlignmentState":
        _check_shape(kind, activity, transition)
        return tuple.__new__(cls, (kind, activity, transition, event_ref, move_cost, marking_after))

    def __repr__(self) -> str:
        return (
            f"AlignmentState(move=Move(kind={self.kind!r}, activity={self.activity!r}, "
            f"transition={self.transition!r}, event_ref={self.event_ref!r}), "
            f"move_cost={self.move_cost!r}, marking_after={self.marking_after!r})"
        )


def _shared_step(steps: dict, key: tuple, cost: float) -> AlignmentState:
    """The step with no event ref of ``key`` and move cost ``cost``, from a net's step table ``steps``.

    The table maps ``key``, ``(kind, activity, transition, marking_after)``,
    to the one step of that value. A stored step serves only when its
    ``move_cost`` is ``cost`` itself, because equal costs of another type
    or sign (``1`` and ``1.0``, ``0.0`` and ``-0.0``) print and add
    differently. Otherwise a fresh step is built, and stored only when no
    step holds the key and the table has fewer than
    :data:`petri.STEP_TABLE_CAP` steps.
    """
    stored = steps.get(key)
    if stored is not None and stored.move_cost is cost:
        return stored
    kind, activity, transition, marking_after = key
    step = AlignmentState(kind, activity, transition, None, cost, marking_after)
    if stored is None and len(steps) < petri.STEP_TABLE_CAP:
        steps[key] = step
    return step


# What a label's synchronous-step table gives for a marking it holds no entry for.
_UNSEEN = object()


def _sync_step(
    net: PetriNet, by_marking: dict, activity: ActivityLabel, marking: Marking, cost: float
) -> AlignmentState | None:
    """The synchronous step of ``activity`` at ``marking`` with move cost ``cost``, or None.

    The miss path of the extension's read of ``net._sync_steps``, whose
    entry for ``activity`` is ``by_marking``. None when no transition
    labeled ``activity`` is enabled at ``marking``; otherwise the lowest
    enabled transition id fires, and the step comes from
    :func:`_shared_step`, whose rule also decides when a stored entry
    serves: only when its ``move_cost`` is ``cost`` itself. The result is
    stored under the marking only when the marking has no entry, so an
    entry is never replaced, and only under one of the first
    :data:`petri.SUCCESSOR_TABLE_CAP` tickets the net issues for the
    whole table.
    """
    successors = net.successors(marking)
    step = None
    for transition in net.transitions_labeled(activity):
        reached = successors.get(transition)
        if reached is not None:
            step = _shared_step(net._steps, (_SYNCHRONOUS, activity, transition, reached), cost)
            break
    if marking not in by_marking and next(net._sync_tickets) < petri.SUCCESSOR_TABLE_CAP:
        by_marking[net._intern(marking)] = step
    return step


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


class _PrefixAlignmentFields(NamedTuple):
    """The fields of :class:`PrefixAlignment`, in order, with its constructor's defaults."""

    base_marking: Marking
    states: tuple[AlignmentState, ...] = ()
    summary: float | None = None
    moves_cost: float | None = None
    refs: tuple[EventRef | None, ...] | None = None


class PrefixAlignment(_PrefixAlignmentFields):
    """Ordered alignment states, optionally led by a summary state.

    ``base_marking`` is the marking from which the first state proceeds:
    the net's initial marking for fresh cases, or the carry-forward
    marking the forgotten prefix reached when a summary is present.
    ``summary`` is that prefix's cost (kappa_o), or None when nothing was
    forgotten; together with ``base_marking`` it is the summary state,
    the one slot that holds the position and the cost. A summary-only
    ``PrefixAlignment(marking, (), kappa_o, 0)`` is R_C's entry for a forgotten case.
    ``moves_cost`` is the sum of the states' move costs
    (:func:`fold_move_costs`); it is computed from
    ``states`` when omitted, and :meth:`empty`, :meth:`append`, the
    extension, truncation, eviction and the search pass it in instead of
    summing again.
    ``refs`` are the event refs of the event-consuming states, in order:
    the engine's states are steps the net shares (see
    :func:`extend_model_semantics`), which carry no ref of their own, so
    the alignment keeps its events' refs next to them. When omitted,
    ``refs`` is computed from the states' own ``event_ref``.

    It is a frozen named tuple: it compares, hashes, prints, indexes,
    iterates and orders as the tuple of its five fields, and assigning or
    deleting a field raises ``dataclasses.FrozenInstanceError``. Every
    alignment the library builds carries ``fold_move_costs(states)`` as
    its ``moves_cost`` (an int 0 where it has no states, which equals 0.0
    and hashes alike), so two of them with equal states, summary, base
    marking and refs are equal.
    Every alignment is built by ``PrefixAlignment._from_fields``,
    ``tuple.__new__`` over all five fields, which runs no Python frame:
    the extension, truncation, the search and eviction call it directly,
    and the constructor calls it once it has worked out the omitted
    fields.
    """

    __slots__ = ()
    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr

    def __new__(
        cls,
        base_marking: Marking,
        states: tuple[AlignmentState, ...] = (),
        summary: float | None = None,
        moves_cost: float | None = None,
        refs: tuple[EventRef | None, ...] | None = None,
    ) -> "PrefixAlignment":
        if moves_cost is None:
            moves_cost = fold_move_costs(states)
        if refs is None:
            # from a list, not a generator: tuple() sizes a generator's result
            # at 10 and shrinks it, and once freed, the shrunk block stays on
            # CPython's free list for its size; one per search added up
            refs = tuple([s.event_ref for s in states if s.kind in CONSUMING_KINDS])
        return PrefixAlignment._from_fields((base_marking, states, summary, moves_cost, refs))

    @classmethod
    def empty(cls, start: Marking) -> "PrefixAlignment":
        return cls(start, (), None, 0, ())

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

    def log_activities(self) -> list[ActivityLabel]:
        """Activities of the event-consuming moves, in order, in a new list."""
        return [s.activity for s in self.states if s.kind in CONSUMING_KINDS]

    def log_projection(self) -> tuple[tuple[ActivityLabel, EventRef | None], ...]:
        """Activities of the event-consuming moves, in order, with their refs."""
        return tuple(zip(self.log_activities(), self.refs))

    def append(self, state: AlignmentState) -> "PrefixAlignment":
        """This alignment followed by ``state``; a consuming state adds its own ``event_ref`` to ``refs``."""
        refs = self.refs
        if state.kind in CONSUMING_KINDS:
            refs += (state.event_ref,)
        return PrefixAlignment._from_fields(
            (self.base_marking, self.states + (state,), self.summary, self.moves_cost + state.move_cost, refs)
        )


# The one point every alignment is built at: (base_marking, states, summary,
# moves_cost, refs) -> a PrefixAlignment of them. A method bound once, so a
# call is tuple.__new__'s and no Python frame runs; tests count alignments
# by patching it.
PrefixAlignment._from_fields = MethodType(tuple.__new__, PrefixAlignment)


def check_search_budget(budget: int) -> None:
    """Raise ValueError unless ``budget`` lets a search expand: an int, not a bool, of at least 1."""
    check_int(budget, "search budget")
    if budget < 1:
        raise ValueError(f"search budget must be at least 1 expansion, not {budget!r}")


def _check_state_limit(w: int) -> None:
    """Raise ValueError unless ``w`` is a state limit: an int, not a bool, of at least 1."""
    check_int(w, "limit w")
    if w < 1:
        raise ValueError(f"truncation requires a state limit w >= 1, not {w!r}")


def truncated_alignment(
    base_marking: Marking,
    states: tuple[AlignmentState, ...],
    summary: float | None,
    refs: tuple[EventRef | None, ...],
    w: int,
) -> PrefixAlignment | None:
    """The alignment of these fields with its earliest states in excess of ``w`` forgotten.

    This is the one truncation rule. ``policies.truncate_states`` applies
    it to an alignment, and :func:`extend_model_semantics` to the fields of
    the alignment it is about to build, so an extended event under a state
    limit builds one alignment. Returns None when the fields hold at most
    ``w`` slots (a summary counts as one), or when only the states to keep
    are left; raises ValueError when ``w`` is not a state limit (see
    :func:`_check_state_limit`).

    The summary cost absorbs the prior carried cost plus the forgotten
    moves' costs, added left to right, and the marking the forgotten
    prefix reached becomes the ``base_marking``. For w=1 the single most
    recent state is kept next to the summary, so a truncated alignment
    never shrinks below two slots. The kept states' cost is folded again
    rather than taken as a difference, and the refs of the forgotten
    events go with them.
    """
    if type(w) is not int or w < 1:
        _check_state_limit(w)  # the full check; it lets only an int subclass >= 1 through
    keep = w - 1 if w > 1 else 1
    count = len(states)
    if count <= keep or (summary is None and count <= w):
        return None
    dropped = states[:-keep]
    forgotten_events = 0
    for s in dropped:
        if s.kind in CONSUMING_KINDS:
            forgotten_events += 1
    kept = states[-keep:]
    carried = summary if summary is not None else 0.0
    return PrefixAlignment._from_fields(
        (
            dropped[-1].marking_after,
            kept,
            carried + fold_move_costs(dropped),
            fold_move_costs(kept),
            refs[forgotten_events:],
        )
    )


def extend_model_semantics(
    net: PetriNet,
    pa: PrefixAlignment,
    activity: ActivityLabel,
    event_ref: EventRef | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    w: int | None = None,
) -> PrefixAlignment | None:
    """Append a synchronous move if the activity is directly enabled.

    Returns the extended alignment, or None when no transition labeled
    ``activity`` is enabled in the current marking (no tau-closure is
    explored). When several enabled transitions share the label, the
    lowest transition id fires. The move is a step with no event ref,
    and ``event_ref`` goes to the alignment's ``refs``.

    The step, or the None, is read from the net's synchronous-step
    table by label and then by marking. A stored step serves only when
    its ``move_cost`` is ``cost_model.sync_cost`` itself, the rule of
    :func:`_shared_step`; a stored None serves every caller. A label no
    transition carries has no entry in the table and gives None at once;
    any other miss goes to :func:`_sync_step`, which computes the step
    from the successor entry and the step table and stores it if the
    marking has no entry.

    With a state limit ``w``, the extended alignment is built already
    truncated by :func:`truncated_alignment`, the rule
    ``policies.truncate_states`` applies: it equals
    ``truncate_states(extend_model_semantics(net, pa, activity, ...), w)``
    in every field, and is one alignment where those are two. The rule
    keeps max(w - 1, 1) states, so it is called only when the extended
    states number at least ``w``. A ``w`` that is not a state limit
    raises ValueError, on a miss too.
    """
    cost = cost_model.sync_cost
    states = pa.states
    marking = states[-1].marking_after if states else pa.base_marking
    by_marking = net._sync_steps.get(activity)
    if by_marking is None:  # no transition carries the label
        step = None
    else:
        step = by_marking.get(marking, _UNSEEN)
        if step is _UNSEEN or step is not None and step.move_cost is not cost:
            step = _sync_step(net, by_marking, activity, marking, cost)
    if step is None:
        if w is not None and (type(w) is not int or w < 1):
            _check_state_limit(w)
        return None
    states += (step,)
    refs = pa.refs + (event_ref,)
    # the rule keeps max(w - 1, 1) states, so fewer than w states lose none;
    # a w that is not an int goes to the rule, which checks it
    if w is not None and (type(w) is not int or len(states) >= w):
        truncated = truncated_alignment(pa.base_marking, states, pa.summary, refs, w)
        if truncated is not None:
            return truncated
    return PrefixAlignment._from_fields((pa.base_marking, states, pa.summary, pa.moves_cost + cost, refs))


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
    A consuming move of an event with a ref carries that ref; every other
    move is a step with no ref that the net shares (see :func:`_shared_step`).

    ``upper_bound`` is a cost some alignment of ``trace`` from ``start``
    does not exceed. The search then drops every entry whose g plus a
    consistent lookahead h exceeds the bound by more than a rounding
    slack of 1e-9 x max(1, bound). h charges ``log_cost`` for each
    remaining event whose label no transition carries, plus
    min(log_cost, model_cost) when the next event's label is carried but
    the marking enables neither a transition with that label nor a silent
    one. Dropped entries take no ticket and the order above stays, so the
    result is the one the unbounded search returns, whatever the costs.
    The labels each marking lets through are kept in a memo for the
    search, and without a bound the limit is infinite, so nothing is
    dropped.

    Each expansion closes its entry with one ``setdefault``, calls
    ``net.enabled_transitions(marking)`` once, reads the marking's
    successor entry once from the net's table, and pushes from three
    sites: sync, silent or model, and log (see the module docstring).

    Raises SearchBudgetExceeded once an expansion would exceed
    ``budget`` expansions (a search of E expansions passes with budget
    E), and BoundBelowOptimum when no alignment is within
    ``upper_bound``.
    """
    activities, refs = _split_trace(trace)
    if not activities:
        raise ValueError("trace must be non-empty")
    total = len(activities)
    sync_cost = cost_model.sync_cost
    silent_cost = cost_model.silent_model_cost
    model_cost = cost_model.model_cost
    log_cost = cost_model.log_cost
    h_unit = min(sync_cost, log_cost)
    step_costs = (sync_cost, silent_cost, model_cost, log_cost)  # by kind rank
    # without a bound nothing is pruned: no g exceeds an infinite limit
    limit = math.inf if upper_bound is None else upper_bound + _BOUND_SLACK * max(1.0, abs(upper_bound))
    lookahead = min(log_cost, model_cost)
    forced, carried = _lookahead_tables(net, activities, log_cost)
    passes = _Passes(net)

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
    next_ticket = count().__next__
    frontier: list[tuple] = [(h_unit * total, 0, next_ticket(), 0.0, start, 0, None, None)]
    heappush = heapq.heappush
    heappop = heapq.heappop
    enabled_transitions = net.enabled_transitions
    table_get = net._table.get
    label_of = net.labels.get
    expansions = 0

    while frontier:
        entry = heappop(frontier)
        pos = entry[5]
        if pos == total:
            return _reconstruct(net, start, entry, closed, activities, refs, step_costs)
        marking = entry[4]
        here = closed[pos]
        if here.setdefault(marking, entry) is not entry:
            continue  # expanded already, from an entry that popped first
        expansions += 1
        if expansions > budget:
            raise SearchBudgetExceeded(budget)

        next_pos = pos + 1
        ahead = closed[next_pos]
        if ahead is None:
            ahead = closed[next_pos] = {}
        g = entry[3]
        activity = activities[pos]
        forced_here = forced[pos]
        forced_ahead = forced[next_pos]
        # the successor entry's keys; one call per expansion: bench/ counts expansions by it
        enabled = enabled_transitions(marking)
        successors = table_get(marking)
        if successors is None:  # past the table's cap
            successors = net.successors(marking)
        for t in enabled:
            fired = successors[t]
            label = label_of(t)
            if label is None:
                cost, rank = silent_cost, _SILENT
            else:
                cost, rank = model_cost, _MODEL
                if label == activity and fired not in ahead:
                    ng = g + sync_cost
                    gh = ng + forced_ahead
                    if not (
                        gh > limit
                        or gh + lookahead > limit and carried[next_pos]
                        and activities[next_pos] not in passes[fired]
                    ):
                        nf = ng + h_unit * (total - next_pos) if h_unit else ng
                        heappush(frontier, (nf, _SYNC, next_ticket(), ng, fired, next_pos, marking, t))
            # a silent or model move stays at the position
            if fired not in here:
                ng = g + cost
                gh = ng + forced_here
                if not (
                    gh > limit
                    or gh + lookahead > limit and carried[pos] and activity not in passes[fired]
                ):
                    nf = ng + h_unit * (total - pos) if h_unit else ng
                    heappush(frontier, (nf, rank, next_ticket(), ng, fired, pos, marking, t))
        if marking not in ahead:
            ng = g + log_cost
            gh = ng + forced_ahead
            if not (
                gh > limit
                or gh + lookahead > limit and carried[next_pos]
                and activities[next_pos] not in passes[marking]
            ):
                nf = ng + h_unit * (total - next_pos) if h_unit else ng
                heappush(frontier, (nf, _LOG, next_ticket(), ng, marking, next_pos, marking, None))

    # without a bound the all-log path always reaches the goal
    raise BoundBelowOptimum(upper_bound)


class _Passes(dict):
    """Marking -> the labels the pruning lookahead lets through, in a tuple.

    A marking lets the next event's label through, and is not charged
    for it, when it enables a transition with that label, or a silent
    transition, after which any label may follow. One search keeps one,
    filled on a marking's first lookup from its successor entry.
    """

    __slots__ = ("net",)

    def __init__(self, net: PetriNet) -> None:
        self.net = net

    def __missing__(self, marking: Marking) -> tuple[ActivityLabel, ...]:
        labels = self.net.labels
        passes = []
        for t in self.net.successors(marking):
            label = labels.get(t)
            if label is None:
                passes = labels.values()
                break
            passes.append(label)
        passes = self[marking] = tuple(passes)
        return passes


def _lookahead_tables(
    net: PetriNet, activities: Sequence[ActivityLabel], log_cost: float
) -> tuple[list[float], bytearray]:
    """Per position, the end of the trace included: the forced log cost and whether the label is carried.

    The forced log cost is ``log_cost`` x the events from the position on
    whose label no transition carries; all zeros when the net carries
    every label, and positions with the same count share one float, so a
    trace the net carries throughout holds one. The flags take a byte
    per position: 1 where some transition carries the position's label,
    0 where none does and at the end, where the lookahead adds nothing.
    """
    cost = log_cost * 0
    costs = [cost] * (len(activities) + 1)
    carried = bytearray(len(activities) + 1)
    carried_nowhere = 0
    for pos in range(len(activities) - 1, -1, -1):
        if activities[pos] in net._by_label:
            carried[pos] = 1
        else:
            carried_nowhere += 1
            cost = log_cost * carried_nowhere
        costs[pos] = cost
    return costs, carried


def _split_trace(
    trace: Sequence[tuple[ActivityLabel, EventRef | None] | ActivityLabel],
) -> tuple[Sequence[ActivityLabel], list[EventRef | None] | None]:
    """The trace's activities, and its events' refs when some item is an ``(activity, ref)`` pair.

    A trace of bare activities, the engine's, is used as it is and has no
    refs, so a search builds no per-event pair.
    """
    for item in trace:
        if not isinstance(item, str):
            break
    else:
        return trace, None
    activities = []
    refs = []
    for item in trace:
        activity, ref = (item, None) if isinstance(item, str) else item
        activities.append(activity)
        refs.append(ref)
    return activities, refs


def _reconstruct(
    net: PetriNet,
    start: Marking,
    goal: tuple,
    closed: list[dict[Marking, tuple] | None],
    activities: Sequence[ActivityLabel],
    trace_refs: list[EventRef | None] | None,
    step_costs: tuple[float, float, float, float],
) -> PrefixAlignment:
    steps = net._steps
    states: list[AlignmentState] = []
    refs: list[EventRef | None] = []
    entry = goal
    while True:
        _, rank, _, _, marking, pos, parent, transition = entry
        if parent is None:  # the start entry
            break
        if rank == _SYNC or rank == _LOG:
            # a move that advances the position consumes the event it passed
            pos -= 1
            activity = activities[pos]
            ref = trace_refs[pos] if trace_refs is not None else None
            refs.append(ref)
        else:
            activity = ref = None
        kind = _KINDS_BY_RANK[rank]
        cost = step_costs[rank]
        if ref is None:
            step = _shared_step(steps, (kind, activity, transition, marking), cost)
        else:
            step = AlignmentState(kind, activity, transition, ref, cost, marking)
        states.append(step)
        entry = closed[pos][parent]
    states.reverse()
    refs.reverse()
    # the goal's g added the step costs left to right, as fold_move_costs does
    return PrefixAlignment._from_fields((start, tuple(states), None, goal[3], tuple(refs)))
