"""The rejections of outside input, one parametrized test per reader.

Each case reaches a raise or a skip in a reader that no other test
reaches: the PNML loader and its final-marking sources, the net's own
validation, the CSV and XES readers, the experiment config reader, the
policy limits, and the lines ``validate-model`` prints for silent
transitions and for a reachability search that runs out of budget.
"""

from __future__ import annotations

import json

import pytest

from streamcc import ParseError, PetriNet, Policy, PolicyConfig, ValidationError, load_model
from streamcc.cli import main
from streamcc.evaluation import ExperimentConfig
from streamcc.petri import Marking
from streamcc.pnml import load_pnml, to_pnml
from streamcc.streams import parse_csv_log, parse_xes_log

PLACE_S = '<place id="s"><initialMarking><text>1</text></initialMarking></place>'
NET_BODY = PLACE_S + '<place id="f"/><transition id="A"><name><text>A</text></name></transition>'
ARCS = '<arc id="a1" source="s" target="A"/><arc id="a2" source="A" target="f"/>'


def pnml(body: str, *, extra: str = "") -> bytes:
    """A PNML document of one net whose page holds ``body``; ``extra`` follows the page."""
    return f'<pnml><net id="n"><page id="pg">{body}</page>{extra}</net></pnml>'.encode()


def final_markings(places: str) -> str:
    return f"<finalmarkings><marking>{places}</marking></finalmarkings>"


@pytest.mark.parametrize(
    "document, error, message",
    [
        (pnml("<place/>"), ValidationError, r"^<place> without id$"),
        (pnml(PLACE_S + "<transition/>"), ValidationError, r"^<transition> without id$"),
        (pnml(PLACE_S + '<place id="s"/>'), ValidationError, r"^duplicate id 's'$"),
        (pnml(NET_BODY + '<transition id="A"/>'), ValidationError, r"^duplicate id 'A'$"),
        (pnml(NET_BODY + '<transition id="s"/>'), ValidationError, r"^duplicate id 's'$"),
        (
            pnml('<place id="s"><initialMarking><text>one</text></initialMarking></place>'),
            ValidationError,
            r"^place 's': bad initialMarking 'one'$",
        ),
        (
            pnml('<place id="s"><initialMarking><text>-1</text></initialMarking></place>'),
            ValidationError,
            r"^place 's': negative initialMarking$",
        ),
        (pnml(NET_BODY + '<arc id="a" target="A"/>'), ValidationError, r"^<arc> without source/target$"),
        (pnml(NET_BODY + '<arc id="a" source="s"/>'), ValidationError, r"^<arc> without source/target$"),
        (
            pnml(NET_BODY + ARCS + '<arc id="a3" source="s" target="A"/>'),
            ValidationError,
            r"^duplicate arc 's'->'A'$",
        ),
        (b"<pnml><other/></pnml>", ParseError, r"^document contains no <net> element$"),
        (
            b'<pnml><net id="n"><page id="p1"/><page id="p2"/></net></pnml>',
            ValidationError,
            r"^multiple <page> elements are not supported$",
        ),
        (
            pnml(NET_BODY + ARCS, extra=final_markings("<place><text>1</text></place>")),
            ValidationError,
            r"^<finalmarkings> place without idref$",
        ),
        (
            pnml(NET_BODY + ARCS, extra=final_markings('<place idref="f"><text>x</text></place>')),
            ValidationError,
            r"^finalmarkings place 'f': bad count 'x'$",
        ),
    ],
    ids=[
        "place-without-id",
        "transition-without-id",
        "duplicate-place",
        "duplicate-transition",
        "transition-with-a-place-id",
        "bad-initial-marking",
        "negative-initial-marking",
        "arc-without-source",
        "arc-without-target",
        "duplicate-arc",
        "no-net",
        "two-pages",
        "final-place-without-idref",
        "final-place-bad-count",
    ],
)
def test_load_pnml_rejects(document, error, message):
    with pytest.raises(error, match=message):
        load_pnml(document)


def test_load_pnml_reads_a_net_root():
    net = load_pnml(f'<net id="bare"><page id="pg">{NET_BODY}{ARCS}</page></net>'.encode())
    assert (net.name, sorted(net.places), net.labels) == ("bare", ["f", "s"], {"A": "A"})


def test_embedded_final_place_without_text_counts_one():
    net = load_pnml(pnml(NET_BODY + ARCS, extra=final_markings('<place idref="f"/>')))
    assert net.final_marking.as_dict() == {"f": 1}


@pytest.mark.parametrize(
    "sidecar, error, message",
    [
        ("{not json", ParseError, r"^cannot read final-marking sidecar .*seq\.final\.json: "),
        # the count passes the JSON reader; the marking rejects it, and the loader names that a ValidationError
        ('{"final_marking": {"f": -1}}', ValidationError, r"^non-positive token count -1 for place 'f'$"),
    ],
    ids=["not-json", "negative-count"],
)
def test_final_marking_sidecar_rejects(tmp_path, sidecar, error, message):
    model = tmp_path / "seq.pnml"
    model.write_bytes(pnml(NET_BODY + ARCS))
    (tmp_path / "seq.final.json").write_text(sidecar, encoding="utf-8")
    with pytest.raises(error, match=message):
        load_model(model)


@pytest.mark.parametrize(
    "labels, message",
    [
        ({"ghost": "A"}, r"^label for unknown transition 'ghost'$"),
        ({"t": ""}, r"^empty label for transition 't'; omit silent transitions instead$"),
    ],
    ids=["unknown-transition", "empty-label"],
)
def test_petri_net_rejects_labels(labels, message):
    with pytest.raises(ValidationError, match=message):
        PetriNet(
            places=frozenset({"p", "q"}),
            transitions=frozenset({"t"}),
            arcs=frozenset({("p", "t"), ("t", "q")}),
            labels=labels,
            initial_marking=Marking.of({"p": 1}),
            final_marking=Marking.of({"q": 1}),
        )


def xes(traces: str) -> bytes:
    return f'<log xmlns="http://www.xes-standard.org/">{traces}</log>'.encode()


def xes_event(activity: str, timestamp: str) -> str:
    return (
        f'<event><string key="concept:name" value="{activity}"/>'
        f'<date key="time:timestamp" value="{timestamp}"/></event>'
    )


@pytest.mark.parametrize(
    "read, document, message",
    [
        (parse_csv_log, "", r"^CSV log has no header row$"),
        (
            parse_xes_log,
            xes(f"<trace>{xes_event('A', '2021-10-01T12:00:00')}</trace>"),
            r"^rejected XES events:\n  trace 1: missing concept:name$",
        ),
        (
            parse_xes_log,
            xes(f'<trace><string key="concept:name" value="c1"/>{xes_event("A", "yesterday")}</trace>'),
            r"^rejected XES events:\n  trace 'c1' event 1: unparseable time:timestamp 'yesterday'$",
        ),
    ],
    ids=["csv-without-header", "xes-trace-without-name", "xes-bad-timestamp"],
)
def test_log_readers_reject(tmp_path, read, document, message):
    if isinstance(document, str):
        path = tmp_path / "log.csv"
        path.write_text(document, encoding="utf-8")
        document = path
    with pytest.raises(ParseError, match=message):
        read(document)


def test_xes_skips_root_children_that_are_not_traces():
    document = xes(
        '<extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>'
        '<global scope="event"><string key="concept:name" value="__INVALID__"/></global>'
        f'<trace><string key="concept:name" value="c1"/>{xes_event("A", "2021-10-01T12:00:00")}</trace>'
    )
    assert [(e.case_id, e.activity) for e in parse_xes_log(document).events] == [("c1", "A")]


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", r"^cannot read experiment config .*config\.json: "),
        (
            json.dumps({"model": "m.pnml", "synthetic": {}, "policies": {"policy": "baseline"}}),
            r"^invalid experiment config .*: 'policies' must be a list of policy entries, not ",
        ),
        (
            json.dumps({"model": 3, "synthetic": {}, "policies": [{"policy": "baseline"}]}),
            r"^invalid experiment config .*: 'model' must be a string, not 3$",
        ),
    ],
    ids=["not-json", "policies-not-a-list", "model-not-a-string"],
)
def test_experiment_config_rejects(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError, match=message):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize(
    "policy, limits, message",
    [
        (Policy.BOUNDED_STATES, {"w": 2, "n": 3}, r"^bounded-states does not accept a case limit$"),
        (Policy.BASELINE, {"n": 3}, r"^baseline does not accept a case limit$"),
    ],
    ids=["bounded-states-with-n", "baseline-with-n"],
)
def test_policy_config_rejects_a_limit_it_does_not_take(policy, limits, message):
    with pytest.raises(ValueError, match=message):
        PolicyConfig(policy, **limits)


def test_validate_model_lists_silent_transitions(tmp_path, capsys):
    net = PetriNet.build(
        places=["i", "p", "o"],
        transitions={"tau_b": None, "tau_a": None, "t": "A"},
        arcs=[("i", "tau_b"), ("tau_b", "p"), ("p", "t"), ("t", "o"), ("o", "tau_a"), ("tau_a", "i")],
        initial={"i": 1},
        final={"o": 1},
    )
    path = tmp_path / "silent.pnml"
    path.write_text(to_pnml(net), encoding="utf-8")
    assert main(["validate-model", "--model", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "transitions: 3 (2 silent)" in lines
    assert "silent transitions: tau_a, tau_b" in lines


def test_validate_model_reports_an_exhausted_reachability_budget(tmp_path, capsys):
    # t puts a token back on p and one more on q each time: the net is unbounded
    net = PetriNet.build(
        places=["p", "q", "r"],
        transitions={"t": "T"},
        arcs=[("p", "t"), ("t", "p"), ("t", "q")],
        initial={"p": 1},
        final={"r": 1},
    )
    path = tmp_path / "unbounded.pnml"
    path.write_text(to_pnml(net), encoding="utf-8")
    assert main(["validate-model", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "final marking reachable: unknown (budget of 10000 markings explored)\n" in out
