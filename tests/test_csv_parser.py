"""The CSV log parser against the ``csv.DictReader`` reader it replaced.

``parse_csv_log`` reads rows with ``csv.reader`` and column indices
resolved once from the header. Each generated CSV must give the oracle's
``EventLog`` (equal, and printed alike) or the oracle's exception type
and message, row number included. A byte-order mark, which spreadsheet
exports write, is dropped from a path and from a text stream's header.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dictreader_csv_log
from streamcc import streams
from streamcc.cli import main
from streamcc.errors import ParseError
from streamcc.streams import CsvColumns, parse_csv_log, read_log

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the default names, custom ones, and names a header may repeat or leave empty
NAMES = ["case_id", "activity", "timestamp", "case", "event", "time", "extra", ""]
CELLS = [
    "c1",
    "c2",
    " c3 ",
    "A",
    " B\t",
    "a,b",
    "line\nbreak",
    'say "hi"',
    "",
    "  ",
    "2021-10-01 08:00:00",
    "2021-10-01T08:00:30Z",
    "2021-10-01t08:01:00z",
    "2021-10-01T10:02:00+02:00",
    " 2021-10-01 08:03 ",
    "2021-10-01",
    "2021-13-01 00:00",
    "not a time",
]
STAMPS = [c for c in CELLS if c.strip().startswith("2021-10")]  # the parseable ones


def _outcome(parse, text: str, columns: CsvColumns):
    """What parsing ``text`` gives: ``("log", log, repr)`` or ``("error", type, message)``."""
    try:
        log = parse(io.StringIO(text, newline=""), columns)
    except Exception as exc:  # the type and message are compared
        return ("error", type(exc), str(exc))
    return ("log", log, repr(log))


@st.composite
def csv_logs(draw):
    columns = CsvColumns(*draw(st.lists(st.sampled_from(NAMES[:6]), min_size=3, max_size=3, unique=True)))
    extras = draw(st.lists(st.sampled_from(NAMES), max_size=3))  # may repeat a column
    header = draw(st.permutations([columns.case_id, columns.activity, columns.timestamp, *extras]))
    if draw(st.sampled_from(range(10))) == 5:
        header.remove(draw(st.sampled_from(header)))  # a column may go missing
    width = len(header)
    # most rows carry a case, an activity and a timestamp where the header
    # puts them; others are short, long, blank or hold any cell at all
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["good"] * 8 + ["any", "blank"]))
        if kind == "blank":
            rows.append([])
            continue
        length = draw(st.sampled_from([width] * 4 + [max(width - 2, 1), max(width - 1, 1), width + 1, width + 2]))
        row = draw(st.lists(st.sampled_from(CELLS), min_size=length, max_size=length))
        if kind == "good":
            wanted = {columns.case_id: "c1", columns.activity: "A"}
            for i, name in enumerate(header):
                if i < length and name in wanted:
                    row[i] = draw(st.sampled_from([wanted[name], f" {wanted[name]} ", "x,y"]))
                elif i < length and name == columns.timestamp:
                    row[i] = draw(st.sampled_from(STAMPS))
        rows.append(row)
    out = io.StringIO(newline="")
    csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n"]))).writerows([header, *rows])
    text = out.getvalue()
    if draw(st.booleans()):
        text = text.replace("\n", "\n\n", 1)  # a blank line under the header
    if draw(st.sampled_from(range(20))) == 5:
        text = ""  # no header row at all
    return text, columns


@settings(max_examples=400, deadline=None)
@given(csv_logs())
def test_parser_reads_as_the_dictreader_oracle(case):
    text, columns = case
    assert _outcome(parse_csv_log, text, columns) == _outcome(dictreader_csv_log, text, columns)


def test_oracle_agreement_covers_a_log_and_each_error():
    # one hand-written case of each outcome, so that a generator that made
    # only errors, or only logs, would not hide a difference
    header = "case_id,activity,timestamp,case_id\r\n"
    cases = {
        "log": (header + "\r\nc1,A,2021-10-01 08:00,c9\r\nc2 , B ,2021-10-01T08:00Z, c8 \r\n", None),
        "empty": (header + "c1,A,2021-10-01 08:00,c9\r\n\r\nc2,,2021-10-01 08:00,c2\r\n",
                  "row 2: empty case id or activity"),
        "timestamp": (header + "c1,A,2021-10-01 08:00,c1\r\nc2,A,,c2\r\n", "row 2: unparseable timestamp ''"),
        "missing": ("case,activity,timestamp\r\nc1,A,2021-10-01 08:00\r\n",
                    "CSV log is missing columns ['case_id']; found ['case', 'activity', 'timestamp']"),
        "no header": ("", "CSV log has no header row"),
    }
    for name, (text, message) in cases.items():
        got = _outcome(parse_csv_log, text, CsvColumns())
        assert got == _outcome(dictreader_csv_log, text, CsvColumns()), name
        if message is None:
            # the repeated case_id column reads from its last position
            assert got[0] == "log" and [e.case_id for e in got[1].events] == ["c9", "c8"]
        else:
            assert got[0] == "error" and got[2] == message, name


def test_a_short_row_reads_a_repeated_column_empty():
    # DictReader fills the cells a short row lacks, the repeated case_id's included
    text = "case_id,activity,timestamp,case_id\nc1,A,2021-10-01 08:00,c9\nc2,A,2021-10-01 08:00\n"
    for parse in (parse_csv_log, dictreader_csv_log):
        with pytest.raises(ParseError, match=r"^row 2: empty case id or activity$"):
            parse(io.StringIO(text))
        assert [e.case_id for e in parse(io.StringIO(text[: text.rindex("c2")])).events] == ["c9"]


def _bom_copy(source: Path, directory: Path, name: str = "bom.csv") -> Path:
    copy = directory / name
    copy.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return copy


def test_a_path_is_parsed_by_one_call(data_dir, monkeypatch):
    # parse_csv_log reads the file's handle without calling itself, so a
    # wrapper of the module's name, as a tracer installs, counts one parse
    calls = []
    parse = streams.parse_csv_log

    def counted(*args, **kwargs):
        calls.append(args[0])
        return parse(*args, **kwargs)

    monkeypatch.setattr(streams, "parse_csv_log", counted)
    path = data_dir / "sample_stream.csv"
    log = read_log(path)
    assert calls == [path]
    assert log == parse(io.StringIO(path.read_text(encoding="utf-8")))


def test_bom_prefixed_path_reads_as_the_plain_log(data_dir, tmp_path):
    plain = data_dir / "sample_stream.csv"
    bom = _bom_copy(plain, tmp_path)
    assert read_log(bom) == read_log(plain)
    assert repr(read_log(bom)) == repr(read_log(plain))


def test_bom_before_a_quoted_header_cell(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'\xef\xbb\xbf"case_id",activity,timestamp\r\nc1,A,2021-10-01 08:00\r\n')
    assert [e.case_id for e in read_log(path).events] == ["c1"]


def test_bom_in_a_text_stream_header(data_dir):
    text = (data_dir / "sample_stream.csv").read_text(encoding="utf-8")
    assert parse_csv_log(io.StringIO("\ufeff" + text)) == parse_csv_log(io.StringIO(text))
    # a custom first column too
    custom = CsvColumns(case_id="case", activity="act", timestamp="ts")
    renamed = "case,act,ts" + text[text.index("\n"):]
    assert parse_csv_log(io.StringIO("\ufeff" + renamed), custom) == parse_csv_log(io.StringIO(text))


def test_bom_in_a_text_stream_before_a_quoted_header_cell():
    text = '"case_id",activity,timestamp\r\nc1,A,2021-10-01 08:00\r\n'
    assert parse_csv_log(io.StringIO("\ufeff" + text)) == parse_csv_log(io.StringIO(text))


def test_a_bom_after_the_start_of_the_log_is_data():
    # a U+FEFF anywhere but the start of the log is data
    text = "case_id,activity,timestamp\nc1,\ufeffA,2021-10-01 08:00\n"
    assert [e.activity for e in parse_csv_log(io.StringIO(text)).events] == ["\ufeffA"]


def test_check_on_a_bom_prefixed_log_writes_the_golden_output(data_dir, tmp_path, capsys):
    bom = _bom_copy(data_dir / "sample_stream.csv", tmp_path)
    code = main([
        "check",
        "--model", str(data_dir / "branching.pnml"),
        "--log", str(bom),
        "--policy", "combined", "--w", "2", "--n", "2",
        "--format", "csv",
    ])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / "check_combined.csv").read_text(encoding="utf-8")
