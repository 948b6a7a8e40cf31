"""Event log parsing and stream replay.

Logs come in as CSV (configurable columns) or a small XES subset;
``read_log`` picks the reader from the file name. Replay turns a log into
a timestamp-ordered pull stream, with stable ordering for equal
timestamps. Replication concatenates renamed copies of the
stream to mimic a larger one.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterator, Sequence
from xml.etree import ElementTree as ET

from .errors import ParseError, TimestampError, check_int
from .petri import ActivityLabel


@dataclass(frozen=True, slots=True)
class Event:
    """One logged activity execution. Every event is distinct via event_id."""

    event_id: int
    case_id: str
    activity: ActivityLabel
    timestamp: datetime


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
    """Read a headered CSV of events; event ids are assigned sequentially."""
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return parse_csv_log(handle, columns)
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

    Events lacking an activity or timestamp are collected and reported
    together in one ParseError.
    """
    root = xml_root(source, "XES")

    def attribute(element: ET.Element, key: str) -> str | None:
        for child in element:
            if child.get("key") == key:
                return child.get("value")
        return None

    events: list[Event] = []
    problems: list[str] = []
    trace_number = 0
    for trace in root:
        if local_name(trace.tag) != "trace":
            continue
        trace_number += 1
        case_id = attribute(trace, "concept:name")
        if not case_id:
            problems.append(f"trace {trace_number}: missing concept:name")
            continue
        event_number = 0
        for element in trace:
            if local_name(element.tag) != "event":
                continue
            event_number += 1
            where = f"trace {case_id!r} event {event_number}"
            activity = attribute(element, "concept:name")
            raw_ts = attribute(element, "time:timestamp")
            if not activity:
                problems.append(f"{where}: missing concept:name")
                continue
            if not raw_ts:
                problems.append(f"{where}: missing time:timestamp")
                continue
            try:
                timestamp = parse_timestamp(raw_ts)
            except TimestampError:
                problems.append(f"{where}: unparseable time:timestamp {raw_ts!r}")
                continue
            events.append(Event(len(events) + 1, case_id, activity, timestamp))
    if problems:
        raise ParseError("rejected XES events:\n  " + "\n  ".join(problems))
    return EventLog(tuple(events))


def read_log(path: str | Path, columns: CsvColumns = CsvColumns()) -> EventLog:
    """Read a log file: XES when its name ends in ``.xes`` (any case), CSV otherwise."""
    if str(path).lower().endswith(".xes"):
        return parse_xes_log(path)
    return parse_csv_log(path, columns)


def replay(log: EventLog, *, pace: float | None = None) -> Iterator[StreamEvent]:
    """Emit the log as a stream ordered by timestamp.

    The sort is stable, so events with equal timestamps keep their log
    order and the ordering is total and deterministic. With ``pace`` set,
    sleeps ``pace`` wall seconds per log second between events (capped
    per gap), for demonstration purposes.
    """
    ordered = sorted(log.events, key=lambda event: event.timestamp)
    previous: datetime | None = None
    for index, event in enumerate(ordered):
        if pace is not None and previous is not None:
            gap = (event.timestamp - previous).total_seconds() * pace
            if gap > 0:
                time.sleep(min(gap, 0.25))
        previous = event.timestamp
        yield StreamEvent(event.case_id, event.activity, index, event.timestamp)


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
            yield StreamEvent(case_id, event.activity, index, event.timestamp)
            index += 1
