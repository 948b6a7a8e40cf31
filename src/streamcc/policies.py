"""Bounded-memory policies for online conformance checking.

One engine processes one event stream sequentially under one of four
policies: the infinite-memory baseline, bounded states per case (limit
w), bounded multi-state cases (limit n), or both limits combined. The
case store D_C and the summary repository R_C of forgotten cases are
dicts keyed by case id. Forgotten prefixes leave a summary state behind
carrying the marking they reached and their cumulative cost, so later
events of the same case resume from that position instead of being
penalized for the missing prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MethodType
from typing import NamedTuple

from . import petri
from .alignment import (
    DEFAULT_COST_MODEL,
    DEFAULT_SEARCH_BUDGET,
    CostModel,
    EventRef,
    MoveKind,
    PrefixAlignment,
    check_search_budget,
    extend_model_semantics,
    shortest_path_prefix_alignment,
    truncated_alignment,
)
from .errors import SearchBudgetExceeded, check_int, frozen_delattr, frozen_setattr
from .petri import ActivityLabel, Marking, PetriNet


class Policy(Enum):
    """The values are the names typed in ``check --policy`` and experiment configs."""

    BASELINE = "baseline"
    BOUNDED_STATES = "bounded-states"
    BOUNDED_CASES = "bounded-cases"
    COMBINED = "combined"


class Method(Enum):
    """Which computation produced a prefix-alignment update."""

    MODEL_SEMANTICS = "model-semantics"
    SHORTEST_PATH = "shortest-path"


@dataclass(frozen=True)
class PolicyConfig:
    policy: Policy
    w: int | None = None
    n: int | None = None
    cost_model: CostModel = DEFAULT_COST_MODEL

    def __post_init__(self) -> None:
        needs_w = self.policy in (Policy.BOUNDED_STATES, Policy.COMBINED)
        needs_n = self.policy in (Policy.BOUNDED_CASES, Policy.COMBINED)
        for name, limit in (("w", self.w), ("n", self.n)):
            if limit is not None:
                check_int(limit, f"limit {name}")
        if needs_w and (self.w is None or self.w < 1):
            raise ValueError(f"{self.policy.value} requires a state limit w >= 1")
        if needs_n and (self.n is None or self.n < 1):
            raise ValueError(f"{self.policy.value} requires a case limit n >= 1")
        if not needs_w and self.w is not None:
            raise ValueError(f"{self.policy.value} does not accept a state limit")
        if not needs_n and self.n is not None:
            raise ValueError(f"{self.policy.value} does not accept a case limit")

    @property
    def label(self) -> str:
        """``<policy>[-w<w>][-n<n>]``, e.g. ``combined-w3-n10``."""
        w = f"-w{self.w}" if self.w is not None else ""
        n = f"-n{self.n}" if self.n is not None else ""
        return f"{self.policy.value}{w}{n}"


@dataclass(slots=True)
class CaseRecord:
    """A case tracked in the multi-state store: its id and its alignment, nothing more.

    What else the engine knows of the case it reads from the alignment
    (its forgetting rank, see :func:`_forgetting_rank`) or from the
    forgetting index (which case was updated least recently). Every
    event adds exactly one event-consuming move, and only forgetting
    removes states, which always leaves a summary: so while the
    alignment has no summary, it holds one event-consuming move per
    event of the case.
    """

    case_id: str
    prefix_alignment: PrefixAlignment


class CaseStore(dict[str, CaseRecord]):
    """D_C: case id to record, in admission order (the forgetting scan order)."""

    records = dict.values  # bench/ reads the records through this name


class SummaryRepository(dict[str, PrefixAlignment]):
    """R_C: case id to its eviction's summary-only PrefixAlignment; popping an absent id raises KeyError."""

    # bench/ patches these two names to count evictions and resumptions
    put = dict.__setitem__
    pop = dict.pop


class EventOutcome(NamedTuple):
    """Per-event result reported by an engine.

    A frozen named tuple: assigning or deleting a field raises
    ``dataclasses.FrozenInstanceError``, as the dataclass it used to be
    did, and it also indexes, iterates and compares like the tuple of its
    seven fields. The engine builds it with ``EventOutcome._from_fields``,
    ``tuple.__new__`` over all seven fields, which runs no Python frame.
    """

    case_id: str
    activity: ActivityLabel
    arrival_index: int
    effective_cost: float
    conformant: bool
    method: Method
    residual_cost: float

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr


# the seven fields, in order, in a tuple -> an outcome of them, by tuple.__new__
EventOutcome._from_fields = MethodType(tuple.__new__, EventOutcome)


def truncate_states(pa: PrefixAlignment, w: int) -> PrefixAlignment:
    """Forget the earliest states in excess of ``w``, leaving a summary.

    The rule lives in :func:`alignment.truncated_alignment`, which
    :func:`extend_model_semantics` also applies as it appends under a
    state limit, so the engine calls this on the search path only. The
    summary absorbs the carried cost and the forgotten moves' costs, the
    marking the forgotten prefix reached becomes the ``base_marking``,
    and for w=1 the most recent state is kept next to the summary.
    Returns ``pa`` itself when nothing is forgotten; a ``w`` that is not
    an int, is a bool or is below 1 raises ValueError.
    """
    truncated = truncated_alignment(pa.base_marking, pa.states, pa.summary, pa.refs, w)
    return pa if truncated is None else truncated


def _forgetting_rank(pa: PrefixAlignment) -> int:
    """Forgetting preference 1..4 of a stored case's alignment; the lowest is forgotten first.

    (1) a compliant monuple: a single event explained by one synchronous
    move from the initial marking; (2) a case whose forgotten prefix
    already carries cost (a summary cost above 0); (3) a fully conformant
    case; (4) a case whose retained states are not fitting.

    An alignment without a summary explains each event of its case (see
    :class:`CaseRecord`), so one synchronous state there is a monuple.
    A pure O(1) function of the alignment, so the engine keeps no copy
    of it: it finds a case's bucket by ranking the alignment it stores.
    """
    summary = pa.summary
    if summary is None:
        states = pa.states
        if len(states) == 1 and states[0].kind is MoveKind.SYNCHRONOUS:
            return 1
    elif summary > 0:
        return 2
    # no carried cost is left, so the alignment's cost is its moves' cost
    return 3 if pa.moves_cost == 0 else 4


class ConformanceEngine:
    """Processes one event stream sequentially under one policy.

    Engines for different configurations are independent; all produced
    values are plain immutable data.

    :attr:`stored_state_count` is a gauge the engine updates as it
    admits, updates, evicts and resumes cases, so reading it is O(1).
    It counts only what the engine did: a caller who changes the dicts
    ``store`` (D_C) or ``repo`` (R_C) directly must not rely on it. R_C
    is written only through ``repo.put`` and ``repo.pop``, which the
    benchmark's tracer counts.

    An engine with a case limit forgets, when a new case arrives at a
    full store, the case of lowest :func:`_forgetting_rank`; ties go to
    the least recently updated case, then to the smallest case id. So
    that eviction does not rescan the store on every orphan event, it
    keeps an incremental forgetting index: one insertion-ordered bucket
    of case ids per rank, a case sitting in the bucket of its stored
    alignment's rank. Every successful event moves its case to the end
    of the bucket of its new rank, so each bucket is in the order of its
    cases' last updates, and the first case of the first non-empty
    bucket is the victim. Eviction deletes the victim from that bucket,
    so it does not rank the alignment again, and reads the victim's slot
    count, kappa_o and carry marking from the alignment's fields with
    the expressions of ``state_count``, ``fitness_cost`` and
    ``current_marking``, calling none of those properties.

    An evicted case's next event resumes from its summary-only
    :class:`PrefixAlignment` in R_C itself. Evicted cases with equal
    summaries (same kappa_o, same carry marking) share one: the engine
    keeps one per value seen, up to :data:`petri.SUCCESSOR_TABLE_CAP`
    values, and builds a fresh one past that.
    """

    def __init__(
        self,
        net: PetriNet,
        config: PolicyConfig | None = None,
        *,
        search_budget: int = DEFAULT_SEARCH_BUDGET,
    ) -> None:
        check_search_budget(search_budget)
        self.net = net
        self.config = config or PolicyConfig(Policy.BASELINE)
        self.search_budget = search_budget
        self.store = CaseStore()
        self.repo = SummaryRepository()
        self.events_processed = 0
        self.search_count = 0
        self.extension_count = 0
        self._buckets: dict[int, dict[str, None]] = {rank: {} for rank in (1, 2, 3, 4)}
        self._stored_slots = 0
        # one summary-only alignment per (kappa_o, carry marking) value, shared by the evicted cases
        self._shared_summaries: dict[tuple[float, Marking], PrefixAlignment] = {}
        # every new case starts from this one alignment; appending copies it
        self._empty = PrefixAlignment.empty(net.initial_marking)

    @property
    def stored_state_count(self) -> int:
        """State slots held: stored states plus one per summary."""
        return self._stored_slots

    def residual_cost(self, case_id: str) -> float:
        """Carried cost of the case's forgotten prefix (0 when nothing was forgotten)."""
        record = self.store.get(case_id)
        pa = record.prefix_alignment if record is not None else self.repo.get(case_id)
        if pa is None:
            raise KeyError(case_id)
        return pa.carried_cost

    def process(
        self, case_id: str, activity: ActivityLabel, event_ref: EventRef | None = None
    ) -> EventOutcome:
        """Align one event of ``case_id`` and report the case's new cost.

        ``event_ref`` identifies the event to the caller (the stream's
        arrival index, say); no outcome carries it. The case's alignment
        keeps it in ``refs`` for as long as it keeps the event's move, next
        to the net's shared step for that move.

        One event reads each fact once: one store lookup and, for a case
        not in the store, one repository lookup, whose summary is popped
        only when there is one. The new alignment's slot count, cost and
        carried cost are each worked out once, from its states and its
        summary, and the old alignment's slot count likewise.

        A raised :class:`SearchBudgetExceeded` leaves the engine unchanged:
        the new alignment is computed and truncated before the store, the
        summary repository, the forgetting index or the slot gauge is
        touched.
        """
        index = self.events_processed
        config = self.config
        w, n = config.w, config.n
        record = self.store.get(case_id)
        if record is not None:
            pa = record.prefix_alignment
        else:
            summary = self.repo.get(case_id)
            pa = self._empty if summary is None else summary
        # under a state limit the extension builds its alignment truncated
        new = extend_model_semantics(self.net, pa, activity, event_ref, config.cost_model, w)
        if new is not None:
            self.extension_count += 1
            method = Method.MODEL_SEMANTICS
        else:
            new = self._search(pa, case_id, activity, event_ref)
            method = Method.SHORTEST_PATH
            if w is not None:
                new = truncate_states(new, w)

        carried = new.summary
        # what the gauge gains: the new alignment's slots, less the slots it replaces
        slots = len(new.states)
        if carried is None:
            carried = 0.0
        else:
            slots += 1
        if record is None:
            if summary is not None:
                self.repo.pop(case_id)
                slots -= 1
            if n is not None and len(self.store) >= n:
                self._evict_one()
            self.store[case_id] = CaseRecord(case_id, new)
        else:
            slots -= len(pa.states) + (pa.summary is not None)
            record.prefix_alignment = new
            if n is not None:
                del self._buckets[_forgetting_rank(pa)][case_id]
        self._stored_slots += slots
        if n is not None:
            # the case goes to the end of the bucket of its new rank
            self._buckets[_forgetting_rank(new)][case_id] = None
        self.events_processed = index + 1

        cost = carried + new.moves_cost
        return EventOutcome._from_fields((case_id, activity, index, cost, cost == 0, method, carried))

    def _search(
        self,
        pa: PrefixAlignment,
        case_id: str,
        activity: ActivityLabel,
        event_ref: EventRef | None,
    ) -> PrefixAlignment:
        """The alignment a shortest-path search gives, for an event the extension cannot explain."""
        # Recompute from the alignment's base marking over the events still
        # recoverable from the retained states; forgotten events are gone,
        # but base_marking is the carry-forward marking in that case. The
        # search gets activities only, so every step it returns is shared.
        trace = pa.log_activities()
        trace.append(activity)
        try:
            fresh = shortest_path_prefix_alignment(
                self.net,
                pa.base_marking,
                trace,
                self.config.cost_model,
                budget=self.search_budget,
                # the current alignment plus a log move for the new event
                upper_bound=pa.moves_cost + self.config.cost_model.log_cost,
            )
        except SearchBudgetExceeded as exc:
            raise SearchBudgetExceeded(exc.budget, case_id) from exc
        self.search_count += 1
        return PrefixAlignment._from_fields(
            (fresh.base_marking, fresh.states, pa.summary, fresh.moves_cost, pa.refs + (event_ref,))
        )

    def _evict_one(self) -> None:
        bucket = self._victim_bucket()
        case_id = next(iter(bucket))
        del bucket[case_id]
        base_marking, states, carried, moves_cost, _ = self.store.pop(case_id).prefix_alignment
        # state_count, fitness_cost and current_marking, read from the fields
        if carried is None:
            carried = 0.0
            self._stored_slots += 1 - len(states)
        else:
            self._stored_slots -= len(states)
        kappa, marking = key = (carried + moves_cost, states[-1].marking_after if states else base_marking)
        summary = self._shared_summaries.get(key)
        if summary is None:
            # a float kappa and the int 0 moves_cost of PrefixAlignment.empty: outcome digests hash their sums
            summary = PrefixAlignment._from_fields((marking, (), kappa, 0, ()))
            # capped like the net's tables: fractional costs give unboundedly many values
            if len(self._shared_summaries) < petri.SUCCESSOR_TABLE_CAP:
                self._shared_summaries[key] = summary
        self.repo.put(case_id, summary)

    # -- forgetting index --------------------------------------------------

    def _victim_bucket(self) -> dict[str, None]:
        """The first non-empty bucket: its first case is the one the forgetting criteria evict."""
        for bucket in self._buckets.values():
            if bucket:
                return bucket
        raise RuntimeError("no case to forget: the forgetting index is empty")

    def _pick_victim(self) -> str:
        """The first case of the first non-empty bucket: the case the forgetting criteria evict."""
        return next(iter(self._victim_bucket()))
