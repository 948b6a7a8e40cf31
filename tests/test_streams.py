from __future__ import annotations

import io
from collections import Counter
from datetime import datetime

import pytest
from hypothesis import given, strategies as st

from streamcc import ParseError, parse_csv_log, replay, replicate_events
from streamcc.errors import TimestampError
from streamcc.streams import CsvColumns, Event, EventLog, parse_xes_log, read_log

XES_TWO_TRACES = b"""<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="1"/>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-10-01T12:45:00+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="B"/>
      <date key="time:timestamp" value="2021-10-02T10:07:00+00:00"/>
    </event>
  </trace>
  <trace>
    <string key="concept:name" value="2"/>
    <event>
      <string key="concept:name" value="A"/>
      <date key="time:timestamp" value="2021-10-01T13:03:00+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="B"/>
      <date key="time:timestamp" value="2021-10-09T14:31:00+00:00"/>
    </event>
  </trace>
</log>
"""


class TestCsv:
    def test_sample_log_first_row(self, data_dir):
        log = parse_csv_log(data_dir / "sample_stream.csv")
        first = log.events[0]
        assert first.case_id == "1"
        assert first.activity == "A"
        assert first.timestamp == datetime(2021, 10, 1, 12, 45)
        assert len(log) == 9

    def test_sequential_event_ids(self, data_dir):
        log = parse_csv_log(data_dir / "sample_stream.csv")
        assert [e.event_id for e in log.events] == list(range(1, 10))

    def test_header_only_gives_empty_log(self):
        log = parse_csv_log(io.StringIO("case_id,activity,timestamp\n"))
        assert len(log) == 0

    def test_malformed_timestamp_names_row(self):
        source = io.StringIO(
            "case_id,activity,timestamp\n1,A,2021-10-01 12:45\n2,B,not-a-time\n"
        )
        with pytest.raises(TimestampError) as excinfo:
            parse_csv_log(source)
        assert "row 2" in str(excinfo.value)

    def test_missing_column_rejected(self):
        with pytest.raises(ParseError):
            parse_csv_log(io.StringIO("case,activity\n1,A\n"))

    def test_custom_columns(self):
        source = io.StringIO("Case ID,Activity,Complete Timestamp\n7,A,2021-01-01 00:00\n")
        log = parse_csv_log(
            source, CsvColumns(case_id="Case ID", activity="Activity", timestamp="Complete Timestamp")
        )
        assert log.events[0].case_id == "7"

    def test_empty_activity_rejected(self):
        with pytest.raises(ParseError):
            parse_csv_log(io.StringIO("case_id,activity,timestamp\n1,,2021-01-01 00:00\n"))

    def test_rfc3339_and_zulu(self):
        source = io.StringIO(
            "case_id,activity,timestamp\n"
            "1,A,2021-10-01T12:45:00Z\n"
            "1,B,2021-10-01T14:45:00+02:00\n"
        )
        log = parse_csv_log(source)
        assert log.events[0].timestamp == datetime(2021, 10, 1, 12, 45)
        # +02:00 normalizes to the same UTC instant
        assert log.events[1].timestamp == datetime(2021, 10, 1, 12, 45)


class TestXes:
    def test_two_traces_in_document_order(self):
        log = parse_xes_log(XES_TWO_TRACES)
        assert len(log) == 4
        assert [e.case_id for e in log.events] == ["1", "1", "2", "2"]
        # cross-check against the CSV rendering of the same log
        csv_text = "case_id,activity,timestamp\n" + "".join(
            f"{e.case_id},{e.activity},{e.timestamp.isoformat()}\n" for e in log.events
        )
        from_csv = parse_csv_log(io.StringIO(csv_text))
        assert [(e.case_id, e.activity, e.timestamp) for e in from_csv.events] == [
            (e.case_id, e.activity, e.timestamp) for e in log.events
        ]

    def test_single_trace_two_events(self):
        doc = XES_TWO_TRACES.split(b"  <trace>")
        single = doc[0] + b"  <trace>" + doc[1] + b"</log>"
        log = parse_xes_log(single)
        assert len(log) == 2

    def test_event_without_timestamp_rejected(self):
        doc = XES_TWO_TRACES.replace(
            b'<date key="time:timestamp" value="2021-10-02T10:07:00+00:00"/>', b"", 1
        )
        with pytest.raises(ParseError) as excinfo:
            parse_xes_log(doc)
        assert "time:timestamp" in str(excinfo.value)
        assert "event 2" in str(excinfo.value)

    def test_event_without_activity_rejected(self):
        doc = XES_TWO_TRACES.replace(b'<string key="concept:name" value="B"/>', b"", 1)
        with pytest.raises(ParseError):
            parse_xes_log(doc)

    def test_malformed_xml(self):
        with pytest.raises(ParseError, match=r"^malformed XES at line 1, column \d+: "):
            parse_xes_log(b"<log><trace>")


class TestReadLog:
    @pytest.mark.parametrize("name", ["log.xes", "LOG.XES", "log.Xes"])
    def test_xes_suffix_in_any_case_reads_xes(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(XES_TWO_TRACES)
        assert read_log(path) == parse_xes_log(XES_TWO_TRACES)
        assert read_log(str(path)) == parse_xes_log(XES_TWO_TRACES)

    @pytest.mark.parametrize("name", ["log.csv", "log.txt", "log"])
    def test_any_other_name_reads_csv_with_the_given_columns(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("Case,Task,When\n9,A,2021-01-01 08:00\n")
        log = read_log(path, CsvColumns(case_id="Case", activity="Task", timestamp="When"))
        assert [(e.case_id, e.activity) for e in log.events] == [("9", "A")]

    def test_xes_content_under_a_csv_name_is_not_sniffed(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(XES_TWO_TRACES)
        with pytest.raises(ParseError):
            read_log(path)


class TestReplay:
    def test_sample_log_arrival_order(self, data_dir):
        log = parse_csv_log(data_dir / "sample_stream.csv")
        stream = list(replay(log))
        assert [e.arrival_index for e in stream] == list(range(9))
        # already timestamp-sorted: arrival order equals log order, and the
        # shared timestamp of the last two events keeps their log order
        assert [(e.case_id, e.activity) for e in stream] == [
            ("1", "A"), ("2", "A"), ("1", "B"), ("2", "B"), ("3", "A"),
            ("3", "E"), ("3", "F"), ("3", "G"), ("1", "C"),
        ]

    def test_cases_interleave_by_time(self, data_dir):
        log = parse_csv_log(data_dir / "sample_stream.csv")
        cases = [e.case_id for e in replay(log)]
        # case 1's events are separated by other cases' events
        assert cases.index("2") < len(cases) - 1 - cases[::-1].index("1")

    def test_reverse_sorted_input(self):
        events = tuple(
            Event(i + 1, "c", f"A{i}", datetime(2021, 1, 10 - i)) for i in range(5)
        )
        stream = list(replay(EventLog(events)))
        assert [e.activity for e in stream] == ["A4", "A3", "A2", "A1", "A0"]

    def test_replay_is_permutation(self):
        events = tuple(
            Event(i + 1, f"c{i % 3}", f"A{i % 4}", datetime(2021, 1, 1 + (i * 7) % 11))
            for i in range(20)
        )
        log = EventLog(events)
        stream = list(replay(log))
        assert Counter((e.case_id, e.activity) for e in stream) == Counter(
            (e.case_id, e.activity) for e in events
        )

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=25))
    def test_timestamp_monotonicity_and_stable_ties(self, days):
        events = tuple(
            Event(i + 1, "c", f"A{i}", datetime(2021, 1, 1 + d)) for i, d in enumerate(days)
        )
        ordered = list(replay(EventLog(events)))
        by_activity = {f"A{i}": e.timestamp for i, e in enumerate(events)}
        stamps = [by_activity[e.activity] for e in ordered]
        assert stamps == sorted(stamps)
        # equal timestamps keep original log order
        positions = [int(e.activity[1:]) for e in ordered]
        for (s1, p1), (s2, p2) in zip(zip(stamps, positions), zip(stamps[1:], positions[1:])):
            if s1 == s2:
                assert p1 < p2


class TestPacedReplay:
    def test_paced_mode_sleeps_between_events(self):
        import time

        events = tuple(
            Event(i + 1, "c", f"A{i}", datetime(2021, 1, 1, 0, i)) for i in range(3)
        )
        started = time.monotonic()
        ordered = list(replay(EventLog(events), pace=1e-4))  # 60s gaps -> 6ms sleeps
        elapsed = time.monotonic() - started
        assert [e.activity for e in ordered] == ["A0", "A1", "A2"]
        assert elapsed >= 0.01

    def test_pace_none_never_sleeps(self):
        events = tuple(
            Event(i + 1, "c", "A", datetime(2021, 1, 1 + i)) for i in range(3)
        )
        assert len(list(replay(EventLog(events)))) == 3


class TestReplicate:
    def test_k1_identical_to_replay(self, data_dir):
        log = parse_csv_log(data_dir / "sample_stream.csv")
        assert list(replicate_events(list(replay(log)), 1)) == list(replay(log))

    def test_k2_renames_second_copy(self):
        events = tuple(
            Event(i + 1, "c1", f"A{i}", datetime(2021, 1, 1, i)) for i in range(3)
        )
        log = EventLog(events)
        stream = list(replicate_events(list(replay(log)), 2))
        assert len(stream) == 6
        assert [e.case_id for e in stream[:3]] == ["c1"] * 3
        assert [e.case_id for e in stream[3:]] == ["c1~r2"] * 3
        assert [e.arrival_index for e in stream] == list(range(6))
        # replay carries the logged time; every copy keeps it
        assert [e.timestamp for e in stream] == [e.timestamp for e in events] * 2

    def test_k_copies_per_event(self):
        events = tuple(
            Event(i + 1, f"c{i}", "A", datetime(2021, 1, 1 + i)) for i in range(4)
        )
        stream = list(replicate_events(list(replay(EventLog(events))), 3))
        counts = Counter(e.activity for e in stream)
        assert counts == {"A": 12}
        case_ids = {e.case_id for e in stream}
        assert len(case_ids) == 12  # disjoint ids across copies

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            list(replicate_events([], 0))
