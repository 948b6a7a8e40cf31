"""Event log parsing and stream replay.

Logs come in as CSV (configurable columns) or a small XES subset;
``read_log`` picks the reader from the file name. Replay turns a log into
a timestamp-ordered pull stream, with stable ordering for equal
timestamps. Replication concatenates renamed copies of the
stream to mimic a larger one.

Ingest builds one value per event and runs no Python frame per event
beyond its loop body and :func:`parse_timestamp`. The CSV reader reads
rows with ``csv.reader``, its column indices resolved once from the
header. A logged :class:`Event` is a named tuple built by
``Event._from_fields`` (``tuple.__new__``, in C), as the engine's
``EventOutcome`` is. A :class:`StreamEvent` stays a frozen slotted
dataclass: the engine's callers read its fields on every event, and on
CPython 3.11 a slot's field read is specialized where a named tuple's is
not. ``replay`` and ``replicate_events`` build it without its generated
``__init__``, by ``object.__new__`` and its four slot descriptors'
``__set__``, which costs about half as much as the ``__init__``.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import chain
from operator import attrgetter
from pathlib import Path
from types import MethodType
from typing import IO, Iterator, NamedTuple, Sequence
from xml.etree import ElementTree as ET

from .errors import ParseError, TimestampError, check_int, frozen_delattr, frozen_setattr
from .petri import ActivityLabel


class Event(NamedTuple):
    """One logged activity execution. Every event is distinct via event_id.

    A frozen named tuple: assigning or deleting a field raises
    ``dataclasses.FrozenInstanceError``, as for every frozen value in this
    package. The parsers build it with ``Event._from_fields``, ``tuple.__new__``
    over its four fields, which runs no Python frame.
    """

    event_id: int
    case_id: str
    activity: ActivityLabel
    timestamp: datetime

    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr


# the four fields, in order, in a tuple -> an event of them, by tuple.__new__
Event._from_fields = MethodType(tuple.__new__, Event)


@dataclass(frozen=True, slots=True)
class StreamEvent:
    """One stream observation: activity ``activity`` happened in case ``case_id``.

    ``timestamp`` is the logged time of the event when the stream was
    replayed from a log.
    """

    case_id: str
    activity: ActivityLabel
    arrival_index: int
    timestamp: datetime | None = None


# A StreamEvent built as its __init__ builds it, in C: object.__new__, then
# each slot descriptor's __set__ (the frozen __setattr__ is not called)
_new_object = object.__new__
_set_case_id = StreamEvent.case_id.__set__
_set_activity = StreamEvent.activity.__set__
_set_arrival_index = StreamEvent.arrival_index.__set__
_set_timestamp = StreamEvent.timestamp.__set__


@dataclass(frozen=True)
class EventLog:
    events: tuple[Event, ...]

    def __len__(self) -> int:
        return len(self.events)

    def case_ids(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for event in self.events:
            seen.setdefault(event.case_id, None)
        return tuple(seen)


@dataclass(frozen=True)
class CsvColumns:
    case_id: str = "case_id"
    activity: str = "activity"
    timestamp: str = "timestamp"


def parse_timestamp(raw: str) -> datetime:
    """Parse ``YYYY-MM-DD HH:MM[:SS]`` or RFC 3339; aware values become naive UTC."""
    text = raw.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(text)
    except ValueError as exc:
        raise TimestampError(f"unparseable timestamp {raw!r}") from exc
    if parsed.tzinfo is not None:
        parsed = parsed.astimezone(timezone.utc).replace(tzinfo=None)
    return parsed


def parse_csv_log(
    source: str | Path | IO[str],
    columns: CsvColumns = CsvColumns(),
) -> EventLog:
    """Read a headered CSV of events; event ids are assigned sequentially.

    A path is read as UTF-8, a leading byte-order mark dropped; from a
    text stream, a U+FEFF that starts its first line is dropped.
    Each cell reads as ``csv.DictReader`` reads it: blank lines are
    skipped, a cell a short row lacks is empty, and a column named twice
    reads from its last position. Rows are numbered from 1 after the
    header, blank lines not counted.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as handle:
            return _parse_csv_lines(handle, columns)
    return _parse_csv_lines(source, columns)


def _parse_csv_lines(source: IO[str], columns: CsvColumns) -> EventLog:
    """The log :func:`parse_csv_log` reads from the text stream ``source``."""
    lines = iter(source)
    first = next(lines, None)
    if first is None:
        raise ParseError("CSV log has no header row")
    # a byte-order mark is dropped before the reader sees it, so a quoted
    # first header cell still reads as quoted; a binary stream's bytes pass
    # to the reader, which names the mistake
    rows = csv.reader(chain((first[1:] if first[:1] == "\ufeff" else first,), lines))
    header = next(rows)
    names = (columns.case_id, columns.activity, columns.timestamp)
    missing = [c for c in names if c not in header]
    if missing:
        raise ParseError(f"CSV log is missing columns {missing}; found {header}")
    position = {name: i for i, name in enumerate(header)}  # a repeated name keeps its last
    case_at, activity_at, timestamp_at = (position[c] for c in names)
    width = max(case_at, activity_at, timestamp_at) + 1
    new_event = Event._from_fields
    events: list[Event] = []
    append = events.append
    for row in rows:
        if len(row) < width:
            if not row:
                continue
            row += [""] * (width - len(row))
        case_id = row[case_at].strip()
        activity = row[activity_at].strip()
        if not case_id or not activity:
            raise ParseError(f"row {len(events) + 1}: empty case id or activity")
        try:
            timestamp = parse_timestamp(row[timestamp_at].strip())
        except TimestampError as exc:
            raise TimestampError(f"row {len(events) + 1}: {exc}") from exc
        append(new_event((len(events) + 1, case_id, activity, timestamp)))
    return EventLog(tuple(events))


def xml_root(source: str | Path | bytes | IO[bytes], kind: str) -> ET.Element:
    """The root element of an XML document; malformed XML raises ParseError naming ``kind``."""
    try:
        if isinstance(source, bytes):
            return ET.fromstring(source)
        return ET.parse(source).getroot()
    except ET.ParseError as exc:
        line, column = exc.position
        raise ParseError(f"malformed {kind} at line {line}, column {column}: {exc.msg}") from exc


def local_name(tag: str) -> str:
    """An element tag without its ``{namespace}`` prefix."""
    return tag.rsplit("}", 1)[-1]


def parse_xes_log(source: str | Path | bytes | IO[bytes]) -> EventLog:
    """Read the concept:name / time:timestamp subset of XES.

    An attribute key given twice in one element reads its first value.
    Events lacking an activity or timestamp are collected and reported
    together in one ParseError.
    """
    root = xml_root(source, "XES")
    new_event = Event._from_fields
    events: list[Event] = []
    problems: list[str] = []
    trace_number = 0
    for trace in root:
        if local_name(trace.tag) != "trace":
            continue
        trace_number += 1
        case_id = next((c.get("value") for c in trace if c.get("key") == "concept:name"), None)
        if not case_id:
            problems.append(f"trace {trace_number}: missing concept:name")
            continue
        event_number = 0
        for element in trace:
            tag = element.tag  # local_name(tag) == "event", without a call per element
            if tag != "event" and not tag.endswith("}event"):
                continue
            event_number += 1
            attributes: dict[str | None, str | None] = {}
            for child in element:
                attributes.setdefault(child.get("key"), child.get("value"))
            activity = attributes.get("concept:name")
            raw_ts = attributes.get("time:timestamp")
            if not activity:
                problem = "missing concept:name"
            elif not raw_ts:
                problem = "missing time:timestamp"
            else:
                try:
                    timestamp = parse_timestamp(raw_ts)
                except TimestampError:
                    problem = f"unparseable time:timestamp {raw_ts!r}"
                else:
                    events.append(new_event((len(events) + 1, case_id, activity, timestamp)))
                    continue
            problems.append(f"trace {case_id!r} event {event_number}: {problem}")
    if problems:
        raise ParseError("rejected XES events:\n  " + "\n  ".join(problems))
    return EventLog(tuple(events))


def read_log(path: str | Path, columns: CsvColumns = CsvColumns()) -> EventLog:
    """Read a log file: XES when its name ends in ``.xes`` (any case), CSV otherwise."""
    if str(path).lower().endswith(".xes"):
        return parse_xes_log(path)
    return parse_csv_log(path, columns)


_BY_TIMESTAMP = attrgetter("timestamp")


def replay(log: EventLog, *, pace: float | None = None) -> Iterator[StreamEvent]:
    """Emit the log as a stream ordered by timestamp.

    The sort is stable, so events with equal timestamps keep their log
    order and the ordering is total and deterministic. With ``pace`` set,
    sleeps ``pace`` wall seconds per log second between events (capped
    per gap), for demonstration purposes.
    """
    ordered = sorted(log.events, key=_BY_TIMESTAMP)
    previous: datetime | None = None
    for index, (_, case_id, activity, timestamp) in enumerate(ordered):
        if pace is not None:
            if previous is not None:
                gap = (timestamp - previous).total_seconds() * pace
                if gap > 0:
                    time.sleep(min(gap, 0.25))
            previous = timestamp
        event = _new_object(StreamEvent)
        _set_case_id(event, case_id)
        _set_activity(event, activity)
        _set_arrival_index(event, index)
        _set_timestamp(event, timestamp)
        yield event


def replicate_events(events: Sequence[StreamEvent], k: int) -> Iterator[StreamEvent]:
    """Concatenate k copies of a stream; copies after the first rename cases.

    ``k`` is checked on the call, before the copies are iterated.
    """
    check_int(k, "replication count")
    if k < 1:
        raise ValueError("replication count must be >= 1")
    return _copies(events, k)


def _copies(events: Sequence[StreamEvent], k: int) -> Iterator[StreamEvent]:
    index = 0
    for copy in range(1, k + 1):
        for event in events:
            case_id = event.case_id if copy == 1 else f"{event.case_id}~r{copy}"
            stream_event = _new_object(StreamEvent)
            _set_case_id(stream_event, case_id)
            _set_activity(stream_event, event.activity)
            _set_arrival_index(stream_event, index)
            _set_timestamp(stream_event, event.timestamp)
            yield stream_event
            index += 1
