"""Labeled Petri nets: markings, enabledness and firing semantics.

A net's structure is immutable once constructed. Enabledness and firing
are decided in one place: a per-net successor table, filled the first
time a marking is looked up, that maps the marking to its enabled
transitions, each with the marking firing it reaches.
:meth:`PetriNet.successors` is the one read of that table;
``enabled_transitions``, ``is_enabled`` and ``fire`` are views of its
entry. Successors are interned, so while the tables have room every
caller that reaches a marking by firing holds the same ``Marking``
object. Their ``(place, count)`` pairs go through the same intern table,
so equal pairs in different markings are one tuple: the benchmark's
parallel net has 1,026 reachable markings but 21 distinct pairs.

The successor table keeps at most :data:`SUCCESSOR_TABLE_CAP` markings,
and the intern table at most that many markings and pairs together,
because a net need not be bounded. Filling both for all 1,026 reachable
markings of the benchmark's parallel net took about 420 B per marking,
markings, pairs and hashes included (tracemalloc, CPython 3.11; about
700 B with a tuple per pair); at that size full tables hold about
1.7 MB. Past the cap a marking's successors are computed on every
lookup and not stored; they are value-equal to what the table would
hold.

A third table, the step table, holds the alignment steps with no event
ref that :mod:`streamcc.alignment` builds on this net, one per
``(kind, activity, transition, marking_after)`` key, so the stored
alignments of every case share them: the benchmark's long-traces
workload holds 4,827 steps of 15 values. ``alignment._shared_step`` is
the one read and write of the table, and holds its rule for when a
stored step serves a caller. The table keeps at most
:data:`STEP_TABLE_CAP` steps; past the cap, steps are built per use,
with equal values. The parallel-alien workload builds 2,065 distinct
steps for its 4,827 stored ones. There a sweep of the cap read a peak
heap of 0.950, 0.919, 0.927 and 1.014 MB at caps 64, 256, 1,024 and
4,096 (0.965 MB with no table; tracemalloc, CPython 3.11), and a p50
latency of 7.5, 7.5, 6.5 and 6.2 us (7.0 us with no table).

A net is safe to share between threads. Two threads that fill the same
entry at once store value-equal entries, so whichever store wins, every
caller sees the same transitions and equal markings, or steps of equal
value that each caller checks against its own cost; only the sharing
of objects is lost. Threads that pass the cap check together each
store their entry, so n threads keep at most
``SUCCESSOR_TABLE_CAP + n - 1`` markings, and likewise for the step
table's cap. A pickled net carries none of the three tables.

Markings are immutable multisets of tokens over place ids, kept in a
canonical sorted form so they can serve as dictionary keys. A marking
hashes its entries once, when it is built, because the search and both
tables look markings up on every step. The hash is not pickled: ``str``
hashes are salted per process, so an unpickled marking is hashed again
by the process that loads it, and finds the equal markings that process
builds (``experiment --jobs`` sends nets and states to workers).

``Marking.__hash__`` is a Python method that returns that stored hash,
so each lookup keyed by a marking calls into Python: the search's
flat loop makes about 7.1 per expansion on the benchmark's long-traces
workload (see :mod:`streamcc.alignment`). A marking that subclassed
``tuple`` would hash in C, but over all its entries on every lookup,
and it would print and compare otherwise. Dict membership, best of 7
``timeit`` runs on a 2-CPU x86-64 Xeon with CPython 3.11, took 75-78 ns
for a ``Marking`` of 1, 3, 5 or 6 entries, and 44, 75, 106 and 123 ns
for such a tuple subclass. The benchmark's cycle nets hold markings of
1 entry, but 1,024 of the parallel net's 1,026 reachable markings hold
5, so the hash stays stored.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from typing import TypeVar

from .errors import FiringNotEnabled, ValidationError

# Activity labels are plain non-empty strings; equality is exact and
# case-sensitive.
ActivityLabel = str

# Most markings a net's successor table keeps, and most markings and
# (place, count) pairs its intern table keeps.
SUCCESSOR_TABLE_CAP = 4096

# Most alignment steps a net's step table keeps (see the module docstring).
STEP_TABLE_CAP = 1024


@dataclass(frozen=True, slots=True)
class Marking:
    """Multiset of tokens over place ids, in canonical form.

    Zero-count entries are never stored, and entries are sorted by place
    id, so two markings are equal iff they contain the same tokens.

    The hash of ``entries`` is computed once, when the marking is built,
    and kept in ``_hash``; it takes no part in equality or ``repr``.
    """

    entries: tuple[tuple[str, int], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for place, count in self.entries:
            if count <= 0:
                raise ValueError(f"non-positive token count {count} for place {place!r}")
        ids = [p for p, _ in self.entries]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError("marking entries must be sorted and unique; use Marking.of()")
        object.__setattr__(self, "_hash", hash(self.entries))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # str hashes are salted per process, so a stored hash must not travel:
        # the receiving process rebuilds the marking and hashes it again
        return (Marking._from_canonical, (self.entries,))

    @classmethod
    def of(cls, tokens: Mapping[str, int] | Iterable[str]) -> "Marking":
        """Build a marking from a place->count mapping or an iterable of places."""
        if isinstance(tokens, Mapping):
            counts = dict(tokens)
        else:
            counts = {}
            for place in tokens:
                counts[place] = counts.get(place, 0) + 1
        return cls(tuple(sorted((p, c) for p, c in counts.items() if c != 0)))

    @classmethod
    def _from_canonical(cls, entries: tuple[tuple[str, int], ...]) -> "Marking":
        # fast path for firing: entries are already sorted, unique, positive
        marking = object.__new__(cls)
        object.__setattr__(marking, "entries", entries)
        object.__setattr__(marking, "_hash", hash(entries))
        return marking

    @classmethod
    def empty(cls) -> "Marking":
        return cls(())

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "[]"
        parts = [p if c == 1 else f"{p}^{c}" for p, c in self.entries]
        return "[" + ", ".join(parts) + "]"


# What a net's intern table holds: markings and their (place, count) pairs.
_Interned = TypeVar("_Interned", Marking, tuple[str, int])


@dataclass(frozen=True)
class PetriNet:
    """A labeled Petri net with an initial and a final marking.

    ``labels`` maps transition ids to activity labels; transitions absent
    from the map are silent. Arcs are ordinary (weight 1).

    :meth:`successors` is the accessor of the net's successor table,
    filled per marking on first lookup and capped at
    :data:`SUCCESSOR_TABLE_CAP` markings (see the module docstring for
    its size and thread safety). ``enabled_transitions``, ``is_enabled``
    and ``fire`` are views of the entry it returns. ``fire`` returns the
    table's interned marking, so ``net.fire(m, t) is net.fire(m, t)``.
    """

    places: frozenset[str]
    transitions: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    labels: Mapping[str, ActivityLabel]
    initial_marking: Marking
    final_marking: Marking
    name: str = ""
    _preset: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _postset: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _by_label: dict[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _table: dict[Marking, dict[str, Marking]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _interned: dict[_Interned, _Interned] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    # (kind, activity, transition, marking_after) -> the one step with no
    # event ref of that value; :mod:`streamcc.alignment` fills and reads it
    _steps: dict[tuple, object] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._validate()
        # _preset lists the transitions in id order; the successor table keeps it
        pre: dict[str, list[str]] = {t: [] for t in sorted(self.transitions)}
        post: dict[str, list[str]] = {t: [] for t in self.transitions}
        for source, target in sorted(self.arcs):
            if source in self.places:
                pre[target].append(source)
            else:
                post[source].append(target)
        object.__setattr__(self, "_preset", {t: tuple(v) for t, v in pre.items()})
        object.__setattr__(self, "_postset", {t: tuple(v) for t, v in post.items()})
        by_label: dict[str, list[str]] = {}
        for t in sorted(self.transitions):
            label = self.labels.get(t)
            if label is not None:
                by_label.setdefault(label, []).append(t)
        object.__setattr__(self, "_by_label", {a: tuple(v) for a, v in by_label.items()})

    def _validate(self) -> None:
        overlap = self.places & self.transitions
        if overlap:
            raise ValidationError(f"ids used as both place and transition: {sorted(overlap)}")
        for source, target in self.arcs:
            if source in self.places and target in self.transitions:
                continue
            if source in self.transitions and target in self.places:
                continue
            raise ValidationError(f"arc ({source!r}, {target!r}) does not connect a place and a transition")
        for t, label in self.labels.items():
            if t not in self.transitions:
                raise ValidationError(f"label for unknown transition {t!r}")
            if not label:
                raise ValidationError(f"empty label for transition {t!r}; omit silent transitions instead")
        for which, marking in (("initial", self.initial_marking), ("final", self.final_marking)):
            unknown = [p for p, _ in marking.entries if p not in self.places]
            if unknown:
                raise ValidationError(f"{which} marking references unknown places {unknown}")

    @classmethod
    def build(
        cls,
        places: Iterable[str],
        transitions: Mapping[str, ActivityLabel | None],
        arcs: Iterable[tuple[str, str]],
        initial: Mapping[str, int] | Iterable[str],
        final: Mapping[str, int] | Iterable[str],
        name: str = "",
    ) -> "PetriNet":
        """Convenience constructor; ``transitions`` maps id -> label (None = silent)."""
        labels = {t: lab for t, lab in transitions.items() if lab is not None}
        return cls(
            places=frozenset(places),
            transitions=frozenset(transitions),
            arcs=frozenset(arcs),
            labels=labels,
            initial_marking=Marking.of(initial),
            final_marking=Marking.of(final),
            name=name,
        )

    # -- semantics ---------------------------------------------------------

    def is_silent(self, transition: str) -> bool:
        return transition not in self.labels

    def preset(self, transition: str) -> tuple[str, ...]:
        return self._preset[transition]

    def transitions_labeled(self, activity: ActivityLabel) -> tuple[str, ...]:
        """All transitions carrying this label, in id order."""
        return self._by_label.get(activity, ())

    def is_enabled(self, marking: Marking, transition: str) -> bool:
        """Whether every input place of ``transition`` holds a token.

        False for a transition id the net does not have.
        """
        return transition in self.successors(marking)

    def enabled_transitions(self, marking: Marking) -> tuple[str, ...]:
        """Transitions with at least one token on every input place, in id order."""
        return tuple(self.successors(marking))

    def fire(self, marking: Marking, transition: str) -> Marking:
        """Fire an enabled transition, consuming and producing one token per arc.

        Raises :class:`FiringNotEnabled` when an input place holds no token,
        and for a transition id the net does not have.
        """
        successor = self.successors(marking).get(transition)
        if successor is None:
            raise FiringNotEnabled(transition, marking)
        return successor

    def successors(self, marking: Marking) -> dict[str, Marking]:
        """The marking's table entry: enabled transition -> marking it reaches, in id order.

        The one read of the successor table. The entry is shared: callers
        must not change it.
        """
        entry = self._table.get(marking)
        if entry is not None:
            return entry
        marked = {p for p, _ in marking.entries}
        intern = self._intern
        entry = {}
        for t, pre in self._preset.items():
            if not marked.issuperset(pre):
                continue
            # markings store no zero counts, and a place feeds a transition at most once
            counts = marking.as_dict()
            for p in pre:
                counts[p] -= 1
            for p in self._postset[t]:
                counts[p] = counts.get(p, 0) + 1
            pairs = sorted(intern(pair) for pair in counts.items() if pair[1] != 0)
            entry[t] = intern(Marking._from_canonical(tuple(pairs)))
        if len(self._table) < SUCCESSOR_TABLE_CAP:
            self._table[intern(marking)] = entry
        return entry

    def _intern(self, value: _Interned) -> _Interned:
        """The one stored object equal to ``value``, stored now if there is room.

        ``value`` is a marking or one of its ``(place, count)`` pairs; a
        pair never equals a marking, so both share the one capped table.
        """
        interned = self._interned.get(value)
        if interned is not None:
            return interned
        if len(self._interned) < SUCCESSOR_TABLE_CAP:
            self._interned[value] = value
        return value

    def __getstate__(self) -> dict:
        # a net unpickles with empty tables: they refill on use, so workers
        # are not sent the markings and steps the sender happened to look up
        return self.__dict__ | {"_table": {}, "_interned": {}, "_steps": {}}

    def is_final(self, marking: Marking) -> bool:
        return marking == self.final_marking
