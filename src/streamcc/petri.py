"""Labeled Petri nets: markings, enabledness and firing semantics.

A net's structure is immutable once constructed. Enabledness and firing
are decided in one place: a per-net successor table, filled the first
time a marking is looked up, that maps the marking to its enabled
transitions, each with the marking firing it reaches.
:meth:`PetriNet.successors` is the one read of that table, and
``enabled_transitions`` is a second name for it; ``is_enabled`` and
``fire`` are views of its entry. Successors are interned, so while the
tables have room every caller that reaches a marking by firing holds
the same ``Marking`` object.

The successor table and the intern table each keep at most
:data:`SUCCESSOR_TABLE_CAP` markings, because a net need not be bounded.
At about 383 B per marking for both (tracemalloc, CPython 3.11), full
tables hold about 1.6 MB. Past the cap a marking's successors are
computed on every lookup and not stored; they are value-equal to what
the table would hold.

A third table, the step table, holds the alignment steps with no event
ref that :mod:`streamcc.alignment` builds on this net, one per
``(kind, activity, transition, marking_after)`` key, so the stored
alignments of every case share them. ``alignment._shared_step`` is
the one read and write of the table, and holds its rule for when a
stored step serves a caller. The table keeps at most
:data:`STEP_TABLE_CAP` steps; past the cap, steps are built per use,
with equal values.

A fourth table, the synchronous-step table, makes the extension of
:mod:`streamcc.alignment` one read: it maps an activity, then a
marking, to the synchronous step the extension appends there, or to
None when no transition with that label is enabled. It is nested, label
first, so a lookup builds no key tuple. It holds a dict for each label
some transition carries, made with the net, and nothing for any other
label, so alien labels cannot grow it. ``alignment._sync_step`` is its
one write, and a stored step serves only under ``_shared_step``'s
cost rule. It also keeps the synchronous steps met after the step
table is full, so those are shared too. The whole table, all labels
together, keeps at most :data:`SUCCESSOR_TABLE_CAP` entries: the net
issues one ticket per entry stored, from an ``itertools.count``, and
stores nothing under a ticket past the cap, so the count costs O(1).

A net is safe to share between threads. Two threads that fill the same
entry at once store value-equal entries, so whichever store wins, every
caller sees the same transitions and equal markings, or steps of equal
value that each caller checks against its own cost; only the sharing
of objects is lost. Threads that pass the cap check together each
store their entry, so n threads keep at most
``SUCCESSOR_TABLE_CAP + n - 1`` markings, and likewise for the step
table's cap. The synchronous-step table takes a ticket per entry
instead, and no two threads get the same ticket (``next`` on an
``itertools.count`` runs in C, under the GIL), so it keeps at most its
cap, within that bound too.

A net pickles as its seven fields. ``_derive`` is the one place its
arc and label indexes and its four tables are made, for a new net and
an unpickled one alike, so an unpickled net starts with empty tables
that refill on use.

Markings are immutable multisets of tokens over place ids, kept in a
canonical sorted form so they can serve as dictionary keys. The search
and every table look markings up several times per expansion (see
:mod:`streamcc.alignment`), so a marking is a ``str`` subclass whose
value encodes its entries: it hashes in C, once, since a ``str`` keeps
its hash, and a lookup that finds the same object compares nothing. Its
``__eq__`` is a Python method, so that a marking never equals a plain
string; a lookup calls it only when it meets an equal marking that is
another object, as interning a freshly fired marking does. The hash
is not pickled: ``str`` hashes are salted per process, so an unpickled
marking is rebuilt from its entries and hashed by the process that
loads it, and finds the equal markings that process builds
(``experiment --jobs`` sends nets and states to workers).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, fields
from itertools import count

from .errors import FiringNotEnabled, ValidationError, check_int, frozen_delattr, frozen_setattr

# Activity labels are plain non-empty strings; equality is exact and
# case-sensitive.
ActivityLabel = str

# Most markings a net's successor table keeps, most markings its intern
# table keeps, and most entries its synchronous-step table keeps over all
# labels.
SUCCESSOR_TABLE_CAP = 4096

# Most alignment steps a net's step table keeps (see the module docstring).
STEP_TABLE_CAP = 1024


def _check_entry(place: object, count: object) -> None:
    """Raise ValueError, naming the place, unless it is a str and its count an int of at least 1."""
    if not isinstance(place, str):
        raise ValueError(f"place id must be a str, not {place!r}")
    check_int(count, f"token count of place {place!r}")
    if count <= 0:
        raise ValueError(f"non-positive token count {count} for place {place!r}")


def _encode(entries: Iterable[tuple[str, int]]) -> str:
    # each entry as "<length of the place id>:<place id>", followed by
    # "*<count>," unless the count is 1: the length says where the id ends,
    # whatever it holds, and the comma where the count does
    return "".join(
        [f"{len(place)}:{place}" if count == 1 else f"{len(place)}:{place}*{count}," for place, count in entries]
    )


class Marking(str):
    """Multiset of tokens over place ids, in canonical form.

    Zero-count entries are never stored, and entries are sorted by place
    id, so two markings are equal iff they contain the same tokens. The
    marking is a ``str`` whose value encodes its entries, one
    ``"<len(place)>:<place>"`` per entry, followed by ``"*<count>,"``
    unless the count is 1, so it hashes in C and caches its hash.
    ``entries`` is decoded from that value on each read.

    It is a value of its own, not a string: it equals only a marking
    (never a plain ``str``, its own encoding included); its ``repr`` is
    ``Marking(entries=(...))``, and ``str`` and ``format`` give
    ``[p1, p2^2]``; it pickles as its entries, and assigning or deleting
    an attribute raises ``dataclasses.FrozenInstanceError``. The ``str``
    operations that would read the encoding are refused: ``in``,
    ``len()`` and iteration raise TypeError, and so do the four orderings,
    whatever the other operand is (a plain ``str`` included).
    Only the empty marking is false.
    """

    __slots__ = ()
    _fields = ("entries",)
    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr
    # __eq__ is defined below, so the hash is named to keep str's C slot
    __hash__ = str.__hash__

    def __new__(cls, entries: Iterable[tuple[str, int]] = ()) -> "Marking":
        entries = tuple(entries)
        for place, count in entries:
            _check_entry(place, count)
        ids = [p for p, _ in entries]
        if ids != sorted(ids) or len(set(ids)) != len(ids):
            raise ValueError("marking entries must be sorted and unique; use Marking.of()")
        return cls._from_canonical(entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Marking) and _str_eq(self, other)

    def __ne__(self, other: object) -> bool:
        return not (isinstance(other, Marking) and _str_eq(self, other))

    def __bool__(self) -> bool:
        # only the empty marking is false; __len__ refuses
        return _str_len(self) != 0

    def __contains__(self, item: object) -> bool:
        raise TypeError("a Marking is no container: read its entries or as_dict()")

    def __len__(self) -> int:
        raise TypeError("a Marking has no len(): read its entries or as_dict()")

    def __iter__(self) -> Iterator[str]:
        raise TypeError("a Marking is not iterable: read its entries or as_dict()")

    # markings are not ordered. Returning NotImplemented would let a plain
    # str order against the encoding, so each ordering refuses any operand;
    # a Marking subclasses str, so its reflected ordering runs first there too
    def __lt__(self, other: object) -> bool:
        raise TypeError(f"markings are not ordered: cannot order a Marking and a {type(other).__name__}")

    __le__ = __gt__ = __ge__ = __lt__

    def __reduce__(self) -> tuple:
        # str hashes are salted per process: the receiving process rebuilds
        # the marking from its entries and hashes it again
        return (Marking, (self.entries,))

    @property
    def entries(self) -> tuple[tuple[str, int], ...]:
        """The ``(place, count)`` pairs, sorted by place, decoded from the value."""
        # through str's own methods, since a Marking refuses len()
        entries = []
        start = 0
        size = _str_len(self)
        while start < size:
            colon = _str_index(self, ":", start)
            start = colon + 1 + int(self[start:colon])
            place = self[colon + 1 : start]
            if start < size and self[start] == "*":
                comma = _str_index(self, ",", start)
                entries.append((place, int(self[start + 1 : comma])))
                start = comma + 1
            else:
                entries.append((place, 1))
        return tuple(entries)

    @classmethod
    def of(cls, tokens: Mapping[str, int] | Iterable[str]) -> "Marking":
        """Build a marking from a place->count mapping or an iterable of places.

        A count of 0 is dropped; any other count must be an int of at
        least 1, and each place id a str.
        """
        if isinstance(tokens, str):
            # a str, a marking among them, would be read as its characters
            raise ValueError(f"tokens must be a mapping or an iterable of place ids, not a str: {tokens!r}")
        if isinstance(tokens, Mapping):
            counts = dict(tokens)
        else:
            counts = {}
            for place in tokens:
                counts[place] = counts.get(place, 0) + 1
        entries = []
        for place, count in counts.items():
            # an int 0 at a place id is dropped; anything else is checked
            if count == 0 and type(count) is int and isinstance(place, str):
                continue
            _check_entry(place, count)
            entries.append((place, count))
        return cls._from_canonical(sorted(entries))

    @classmethod
    def _from_canonical(cls, entries: Iterable[tuple[str, int]]) -> "Marking":
        # fast path for firing: entries are already sorted, unique, positive
        return str.__new__(cls, _encode(entries))

    @classmethod
    def empty(cls) -> "Marking":
        return cls(())

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def __repr__(self) -> str:
        return f"Marking(entries={self.entries!r})"

    def __str__(self) -> str:
        entries = self.entries
        if not entries:
            return "[]"
        parts = [p if c == 1 else f"{p}^{c}" for p, c in entries]
        return "[" + ", ".join(parts) + "]"

    def __format__(self, format_spec: str) -> str:
        # str's __format__ would format the encoding
        return format(self.__str__(), format_spec)


_str_eq = str.__eq__
_str_len = str.__len__
_str_index = str.index


def _set_attributes(net: "PetriNet", values: dict) -> None:
    # attribute by attribute, as a frozen dataclass's __init__ sets them:
    # reading ``net.__dict__`` makes the instance keep its attributes in a
    # dict of its own, and on CPython 3.11 a loop of attribute reads then
    # took about 4x as long (timeit, 2-CPU x86-64 Xeon)
    for name, value in values.items():
        object.__setattr__(net, name, value)


@dataclass(frozen=True)
class PetriNet:
    """A labeled Petri net with an initial and a final marking.

    ``labels`` maps transition ids to activity labels; transitions absent
    from the map are silent. Arcs are ordinary (weight 1).

    :meth:`successors` is the accessor of the net's successor table,
    filled per marking on first lookup and capped at
    :data:`SUCCESSOR_TABLE_CAP` markings (see the module docstring for
    its size and thread safety). ``enabled_transitions`` is a second name
    for it; ``is_enabled`` and ``fire`` are views of the entry it returns.
    ``fire`` returns the table's interned marking, so
    ``net.fire(m, t) is net.fire(m, t)``.
    The step table and the synchronous-step table are filled and read by
    :mod:`streamcc.alignment`.
    """

    places: frozenset[str]
    transitions: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    labels: Mapping[str, ActivityLabel]
    initial_marking: Marking
    final_marking: Marking
    name: str = ""

    def __post_init__(self) -> None:
        self._validate()
        self._derive()

    def _derive(self) -> None:
        """Set the arc and label indexes the net derives from its fields, and its four tables, empty."""
        # _preset lists the transitions in id order; the successor table keeps it
        pre: dict[str, list[str]] = {t: [] for t in sorted(self.transitions)}
        post: dict[str, list[str]] = {t: [] for t in self.transitions}
        for source, target in sorted(self.arcs):
            if source in self.places:
                pre[target].append(source)
            else:
                post[source].append(target)
        by_label: dict[str, list[str]] = {}
        for t in sorted(self.transitions):
            label = self.labels.get(t)
            if label is not None:
                by_label.setdefault(label, []).append(t)
        derived = dict(
            _preset={t: tuple(v) for t, v in pre.items()},
            _postset={t: tuple(v) for t, v in post.items()},
            _by_label={a: tuple(v) for a, v in by_label.items()},
            # marking -> {enabled transition -> the marking firing it reaches}
            _table={},
            # marking -> the one stored marking equal to it
            _interned={},
            # (kind, activity, transition, marking_after) -> the one step with
            # no event ref of that value; :mod:`streamcc.alignment` fills and reads it
            _steps={},
            # activity -> {marking -> the synchronous step the extension appends
            # there, or None when no transition with the label is enabled}, one
            # dict per label some transition carries; :mod:`streamcc.alignment`
            # fills and reads it
            _sync_steps={a: {} for a in by_label},
            # one ticket per entry stored in _sync_steps, all labels together; an
            # entry is stored only under a ticket below SUCCESSOR_TABLE_CAP
            _sync_tickets=count(),
        )
        _set_attributes(self, derived)

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

        The one read of the successor table, also named
        ``enabled_transitions``. The entry is shared: callers must not
        change it.
        """
        entry = self._table.get(marking)
        if entry is not None:
            return entry
        # decoded once per call, however many transitions are enabled
        tokens = marking.as_dict()
        marked = set(tokens)
        intern = self._intern
        entry = {}
        for t, pre in self._preset.items():
            if not marked.issuperset(pre):
                continue
            # markings store no zero counts, and a place feeds a transition at most once
            counts = tokens.copy()
            for p in pre:
                counts[p] -= 1
            for p in self._postset[t]:
                counts[p] = counts.get(p, 0) + 1
            entry[t] = intern(Marking._from_canonical(sorted([pair for pair in counts.items() if pair[1]])))
        if len(self._table) < SUCCESSOR_TABLE_CAP:
            self._table[intern(marking)] = entry
        return entry

    # a search calls it by this name, once per expansion, and the
    # benchmark's tracer counts search expansions by the name
    enabled_transitions = successors

    def _intern(self, marking: Marking) -> Marking:
        """The one stored marking equal to ``marking``, stored now if there is room."""
        interned = self._interned.get(marking)
        if interned is not None:
            return interned
        if len(self._interned) < SUCCESSOR_TABLE_CAP:
            self._interned[marking] = marking
        return marking

    def __getstate__(self) -> dict:
        # a net pickles as its fields: the unpickled net derives its indexes
        # and starts with empty tables, which refill on use, so workers are
        # not sent the markings and steps the sender happened to look up
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        _set_attributes(self, state)
        self._derive()

    def is_final(self, marking: Marking) -> bool:
        return marking == self.final_marking
