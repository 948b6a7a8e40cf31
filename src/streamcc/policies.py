"""Bounded-memory policies for online conformance checking.

One engine processes one event stream sequentially under one of four
policies: the infinite-memory baseline, bounded states per case (limit
w), bounded multi-state cases (limit n, with a summary repository for
forgotten cases), or both limits combined. Forgotten prefixes leave a
summary state behind carrying the marking they reached and their
cumulative cost, so later events of the same case resume from that
position instead of being penalized for the missing prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .alignment import (
    DEFAULT_COST_MODEL,
    DEFAULT_SEARCH_BUDGET,
    CostModel,
    EventRef,
    MoveKind,
    PrefixAlignment,
    SummaryState,
    extend_model_semantics,
    shortest_path_prefix_alignment,
)
from .errors import SearchBudgetExceeded
from .petri import ActivityLabel, PetriNet
from .streams import StreamEvent


class Policy(Enum):
    BASELINE = "baseline"
    BOUNDED_STATES = "bounded_states"
    BOUNDED_CASES = "bounded_cases"
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
        if self.policy is Policy.BASELINE:
            return "baseline"
        if self.policy is Policy.BOUNDED_STATES:
            return f"bounded-states-w{self.w}"
        if self.policy is Policy.BOUNDED_CASES:
            return f"bounded-cases-n{self.n}"
        return f"combined-w{self.w}-n{self.n}"


@dataclass
class CaseRecord:
    """A case tracked in the multi-state store.

    ``event_count`` counts the events observed since the case entered (or
    re-entered) the store; ``last_update`` is the arrival index of its
    most recent event.
    """

    case_id: str
    prefix_alignment: PrefixAlignment
    last_update: int
    event_count: int = 0


class CaseStore:
    """Multi-state case storage (the policies' D_C), optionally capacity-bounded."""

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._records: dict[str, CaseRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, case_id: str) -> bool:
        return case_id in self._records

    def get(self, case_id: str) -> CaseRecord | None:
        return self._records.get(case_id)

    def add(self, record: CaseRecord) -> None:
        if self.capacity is not None and record.case_id not in self._records:
            if len(self._records) >= self.capacity:
                raise ValueError(f"store is at capacity {self.capacity}")
        self._records[record.case_id] = record

    def pop(self, case_id: str) -> CaseRecord:
        return self._records.pop(case_id)

    def records(self) -> Iterator[CaseRecord]:
        """Records in admission order (the forgetting scan order)."""
        return iter(self._records.values())


class SummaryRepository:
    """Single-state summaries of forgotten cases (the policies' R_C)."""

    def __init__(self) -> None:
        self._summaries: dict[str, SummaryState] = {}

    def __len__(self) -> int:
        return len(self._summaries)

    def __contains__(self, case_id: str) -> bool:
        return case_id in self._summaries

    def get(self, case_id: str) -> SummaryState | None:
        return self._summaries.get(case_id)

    def put(self, case_id: str, summary: SummaryState) -> None:
        self._summaries[case_id] = summary

    def pop(self, case_id: str) -> SummaryState | None:
        return self._summaries.pop(case_id, None)

    def items(self) -> Iterator[tuple[str, SummaryState]]:
        return iter(self._summaries.items())


@dataclass(frozen=True)
class EventOutcome:
    """Per-event result reported by an engine."""

    case_id: str
    activity: ActivityLabel
    arrival_index: int
    effective_cost: float
    conformant: bool
    method: Method
    residual_cost: float


def stored_state_count(store: CaseStore, repo: SummaryRepository | None = None) -> int:
    """Total states held in memory; summaries count one state each.

    A full scan: the reference that :attr:`ConformanceEngine.stored_state_count`
    keeps up to date incrementally.
    """
    total = sum(r.prefix_alignment.state_count for r in store.records())
    if repo is not None:
        total += len(repo)
    return total


def truncate_states(pa: PrefixAlignment, w: int) -> PrefixAlignment:
    """Forget the earliest states in excess of ``w``, leaving a summary.

    The summary absorbs any prior summary's carried cost plus the costs of
    the forgotten moves, and records the marking the forgotten prefix
    reached. For w=1 the single most recent state is kept next to the
    summary, so a truncated alignment never shrinks below two slots.
    """
    if w < 1:
        raise ValueError("state limit w must be >= 1")
    if pa.state_count <= w:
        return pa
    keep = max(w - 1, 1)
    if len(pa.states) <= keep:
        return pa
    dropped = pa.states[:-keep]
    carried = pa.summary.kappa_o if pa.summary is not None else 0.0
    summary = SummaryState(
        kappa_o=carried + sum(s.move_cost for s in dropped),
        carry_marking=dropped[-1].marking_after,
    )
    return PrefixAlignment(
        base_marking=summary.carry_marking, states=pa.states[-keep:], summary=summary
    )


def _forgetting_rank(record: CaseRecord) -> int:
    """Forgetting preference 1..4 of one record; 1 is a compliant monuple."""
    pa = record.prefix_alignment
    summary = pa.summary
    if (
        record.event_count == 1
        and summary is None
        and len(pa.states) == 1
        and pa.states[0].move.kind is MoveKind.SYNCHRONOUS
    ):
        return 1
    if summary is not None and summary.kappa_o > 0:
        return 2
    if pa.fitness_cost == 0:
        return 3
    return 4


def select_forget_victim(store: CaseStore) -> str:
    """Pick the case to forget, in a single pass over the store.

    Preference order: (1) a compliant monuple (single event explained by
    one synchronous move from the initial marking) ends the scan
    immediately; (2) cases whose forgotten prefix already carries cost;
    (3) fully conformant cases; (4) cases whose retained states are not
    fitting. Ties fall to the least recently updated case, then the
    smallest case id.
    """
    if len(store) == 0:
        raise ValueError("cannot select a victim from an empty store")
    best: tuple[int, int, str] | None = None
    for record in store.records():
        rank = _forgetting_rank(record)
        if rank == 1:
            return record.case_id
        key = (rank, record.last_update, record.case_id)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


class ConformanceEngine:
    """Processes one event stream sequentially under one policy.

    Engines for different configurations are independent; all produced
    values are plain immutable data.

    :attr:`stored_state_count` is a gauge the engine updates as it
    admits, updates, evicts and resumes cases, so reading it is O(1).
    It counts only what the engine did: a caller who changes ``store``
    or ``repo`` directly must not rely on it. The module-level
    :func:`stored_state_count` is the reference scan it must equal.

    Engines with a case limit keep an incremental forgetting index so
    eviction does not rescan the whole store on every orphan event: one
    insertion-ordered bucket of case ids per preference rank, and each
    case's rank. Every successful event moves its case to the end of its
    bucket, so each bucket is in ``last_update`` order and the first case
    of the first non-empty bucket is exactly the case
    :func:`select_forget_victim` would pick.
    """

    def __init__(
        self,
        net: PetriNet,
        config: PolicyConfig | None = None,
        *,
        search_budget: int = DEFAULT_SEARCH_BUDGET,
    ) -> None:
        self.net = net
        self.config = config or PolicyConfig(Policy.BASELINE)
        self.search_budget = search_budget
        self.store = CaseStore(capacity=self.config.n)
        self.repo = SummaryRepository()
        self.events_processed = 0
        self.search_count = 0
        self.extension_count = 0
        self._buckets: dict[int, dict[str, None]] = {rank: {} for rank in (1, 2, 3, 4)}
        self._ranks: dict[str, int] = {}
        self._stored_slots = 0

    @property
    def stored_state_count(self) -> int:
        """State slots held: stored states plus one per summary."""
        return self._stored_slots

    def residual_cost(self, case_id: str) -> float:
        """Carried cost of the case's forgotten prefix (0 when nothing was forgotten)."""
        record = self.store.get(case_id)
        if record is not None:
            summary = record.prefix_alignment.summary
            return summary.kappa_o if summary is not None else 0.0
        summary = self.repo.get(case_id)
        if summary is None:
            raise KeyError(case_id)
        return summary.kappa_o

    def process_stream(self, events: Iterable[StreamEvent]) -> Iterator[EventOutcome]:
        """Yield the outcome of each event in turn.

        The first :class:`SearchBudgetExceeded` propagates out of the
        generator and closes it, so the rest of ``events`` is not
        processed, although the failed event left the engine unchanged.
        A caller who wants to go on past a failed event loops over
        :meth:`process` itself, or calls this method again on the
        remaining events.
        """
        for event in events:
            yield self.process(event.case_id, event.activity, event.arrival_index)

    def process(
        self, case_id: str, activity: ActivityLabel, event_ref: EventRef | None = None
    ) -> EventOutcome:
        """Align one event of ``case_id`` and report the case's new cost.

        A raised :class:`SearchBudgetExceeded` leaves the engine unchanged:
        the new alignment is computed and truncated before the store, the
        summary repository, the forgetting index or the slot gauge is
        touched.
        """
        index = self.events_processed
        w, n = self.config.w, self.config.n

        record = self.store.get(case_id)
        if record is not None:
            pa = record.prefix_alignment
        else:
            summary = self.repo.get(case_id)
            pa = (
                PrefixAlignment.from_summary(summary)
                if summary is not None
                else PrefixAlignment.empty(self.net.initial_marking)
            )
        pa, method = self._compute(pa, case_id, activity, event_ref)
        if w is not None:
            pa = truncate_states(pa, w)

        if record is None:
            if self.repo.pop(case_id) is not None:
                self._stored_slots -= 1
            if n is not None and len(self.store) >= n:
                self._evict_one()
            record = CaseRecord(case_id, pa, last_update=index)
            self.store.add(record)
            self._stored_slots += pa.state_count
        else:
            self._stored_slots += pa.state_count - record.prefix_alignment.state_count
            record.prefix_alignment = pa
        record.last_update = index
        record.event_count += 1
        if n is not None:
            self._index_record(record)
        self.events_processed = index + 1

        cost = pa.fitness_cost
        residual = pa.summary.kappa_o if pa.summary is not None else 0.0
        return EventOutcome(
            case_id=case_id,
            activity=activity,
            arrival_index=index,
            effective_cost=cost,
            conformant=cost == 0,
            method=method,
            residual_cost=residual,
        )

    def _compute(
        self,
        pa: PrefixAlignment,
        case_id: str,
        activity: ActivityLabel,
        event_ref: EventRef | None,
    ) -> tuple[PrefixAlignment, Method]:
        extended = extend_model_semantics(
            self.net, pa, activity, event_ref, self.config.cost_model
        )
        if extended is not None:
            self.extension_count += 1
            return extended, Method.MODEL_SEMANTICS

        # Recompute from the alignment's base marking over the events still
        # recoverable from the retained states; forgotten events are gone,
        # but base_marking is the carry-forward marking in that case.
        trace = pa.log_projection() + ((activity, event_ref),)
        try:
            fresh = shortest_path_prefix_alignment(
                self.net,
                pa.base_marking,
                trace,
                self.config.cost_model,
                budget=self.search_budget,
            )
        except SearchBudgetExceeded as exc:
            raise SearchBudgetExceeded(exc.budget, case_id) from exc
        self.search_count += 1
        if pa.summary is not None:
            fresh = fresh.with_summary(pa.summary)
        return fresh, Method.SHORTEST_PATH

    def _evict_one(self) -> None:
        victim_id = self._pick_victim()
        victim = self.store.pop(victim_id)
        self._unindex(victim_id)
        pa = victim.prefix_alignment
        self._stored_slots += 1 - pa.state_count
        self.repo.put(
            victim_id,
            SummaryState(kappa_o=pa.fitness_cost, carry_marking=pa.current_marking),
        )

    # -- forgetting index --------------------------------------------------

    def _index_record(self, record: CaseRecord) -> None:
        """Move the case to the end of the bucket of its current rank."""
        case_id = record.case_id
        previous = self._ranks.get(case_id)
        if previous is not None:
            del self._buckets[previous][case_id]
        rank = _forgetting_rank(record)
        self._ranks[case_id] = rank
        self._buckets[rank][case_id] = None

    def _unindex(self, case_id: str) -> None:
        del self._buckets[self._ranks.pop(case_id)][case_id]

    def _pick_victim(self) -> str:
        """The first case of the first non-empty bucket, as :func:`select_forget_victim` picks."""
        for bucket in self._buckets.values():
            if bucket:
                return next(iter(bucket))
        raise RuntimeError("no case to forget: the forgetting index is empty")
