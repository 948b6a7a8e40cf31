from __future__ import annotations

import random

import pytest

from streamcc import ParseError, ValidationError, load_model
from streamcc.pnml import load_final_marking_sidecar, load_pnml, to_pnml

from oracles import random_net

SEQ_ABC_PNML = b"""<?xml version="1.0"?>
<pnml>
  <net id="seq-abc" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="pg">
      <place id="s"><initialMarking><text>1</text></initialMarking></place>
      <place id="q1"/>
      <place id="q2"/>
      <place id="f"/>
      <transition id="A"><name><text>A</text></name></transition>
      <transition id="B"><name><text>B</text></name></transition>
      <transition id="C"><name><text>C</text></name></transition>
      <arc id="a1" source="s" target="A"/>
      <arc id="a2" source="A" target="q1"/>
      <arc id="a3" source="q1" target="B"/>
      <arc id="a4" source="B" target="q2"/>
      <arc id="a5" source="q2" target="C"/>
      <arc id="a6" source="C" target="f"/>
    </page>
  </net>
</pnml>
"""


class TestLoadPnml:
    def test_seq_abc_counts(self):
        net = load_pnml(SEQ_ABC_PNML, final_marking={"f": 1})
        assert len(net.places) == 4
        assert len(net.transitions) == 3
        assert len(net.arcs) == 6
        assert net.initial_marking.as_dict() == {"s": 1}
        assert net.final_marking.as_dict() == {"f": 1}

    def test_unknown_arc_target_rejected(self):
        bad = SEQ_ABC_PNML.replace(b'target="f"', b'target="nowhere"')
        with pytest.raises(ValidationError):
            load_pnml(bad)

    def test_empty_transition_name_is_silent(self):
        doc = SEQ_ABC_PNML.replace(
            b"<transition id=\"B\"><name><text>B</text></name></transition>",
            b"<transition id=\"B\"><name><text></text></name></transition>",
        )
        net = load_pnml(doc, final_marking={"f": 1})
        assert net.is_silent("B")
        assert "B" not in net.labels

    def test_missing_name_element_is_silent(self):
        doc = SEQ_ABC_PNML.replace(
            b"<transition id=\"B\"><name><text>B</text></name></transition>",
            b"<transition id=\"B\"/>",
        )
        net = load_pnml(doc, final_marking={"f": 1})
        assert net.is_silent("B")

    @pytest.mark.parametrize("label", ["tau", "TAU_3", "Tau join", "τ"])
    def test_silent_label_patterns(self, label):
        doc = SEQ_ABC_PNML.replace(
            b"<name><text>B</text></name>",
            f"<name><text>{label}</text></name>".encode(),
        )
        net = load_pnml(doc)
        assert net.is_silent("B")

    def test_weighted_arc_rejected(self):
        for weight in (b"2", b"-2", b"2.0", b"x"):
            doc = SEQ_ABC_PNML.replace(
                b'<arc id="a1" source="s" target="A"/>',
                b'<arc id="a1" source="s" target="A"><inscription><text>'
                + weight
                + b"</text></inscription></arc>",
            )
            with pytest.raises(ValidationError, match="'s'->'A'"):
                load_pnml(doc)

    def test_malformed_xml_parse_error_carries_position(self):
        with pytest.raises(ParseError, match=r"^malformed PNML at line 1, column \d+: ") as excinfo:
            load_pnml(b"<pnml><net id='x'>")
        assert "line" in str(excinfo.value)

    def test_namespaced_document(self):
        doc = SEQ_ABC_PNML.replace(
            b"<pnml>", b'<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">'
        )
        net = load_pnml(doc, final_marking={"f": 1})
        assert len(net.transitions) == 3

    def test_multiple_nets_rejected(self):
        doc = SEQ_ABC_PNML.replace(b"</pnml>", b"<net id='n2'/></pnml>")
        with pytest.raises(ValidationError):
            load_pnml(doc)


class TestFinalMarkingSources:
    def test_embedded_finalmarkings_annotation(self):
        doc = SEQ_ABC_PNML.replace(
            b"  </net>",
            b"    <finalmarkings><marking><place idref=\"f\"><text>1</text></place></marking></finalmarkings>\n  </net>",
        )
        net = load_pnml(doc)
        assert net.final_marking.as_dict() == {"f": 1}

    def test_sidecar_json(self, tmp_path):
        model = tmp_path / "seq.pnml"
        model.write_bytes(SEQ_ABC_PNML)
        sidecar = tmp_path / "seq.final.json"
        sidecar.write_text('{"final_marking": {"f": 1}}')
        assert load_final_marking_sidecar(sidecar) == {"f": 1}
        net = load_model(model)
        assert net.final_marking.as_dict() == {"f": 1}

    def test_sidecar_wins_over_embedded_annotation(self, tmp_path):
        model = tmp_path / "seq.pnml"
        model.write_bytes(
            SEQ_ABC_PNML.replace(
                b"  </net>",
                b"    <finalmarkings><marking><place idref=\"q2\"><text>1</text></place></marking></finalmarkings>\n  </net>",
            )
        )
        assert load_model(model).final_marking.as_dict() == {"q2": 1}
        (tmp_path / "seq.final.json").write_text('{"final_marking": {"f": 1}}')
        assert load_model(model).final_marking.as_dict() == {"f": 1}

    def test_bad_sidecar_rejected(self, tmp_path):
        sidecar = tmp_path / "x.final.json"
        sidecar.write_text('{"nope": 1}')
        with pytest.raises(ParseError):
            load_final_marking_sidecar(sidecar)


class TestRoundTrip:
    def test_random_nets_round_trip_isomorphic(self):
        for seed in range(10):
            net = random_net(random.Random(seed))
            reparsed = load_pnml(to_pnml(net).encode())
            assert reparsed.places == net.places
            assert reparsed.transitions == net.transitions
            assert reparsed.arcs == net.arcs
            assert dict(reparsed.labels) == dict(net.labels)
            assert reparsed.initial_marking == net.initial_marking
            assert reparsed.final_marking == net.final_marking

    def test_bundled_models_parse(self, data_dir):
        branching = load_model(data_dir / "branching.pnml")
        assert len(branching.places) == 9
        assert branching.final_marking.as_dict() == {"po": 1}
        cycle = load_model(data_dir / "cycle10.pnml")
        assert len(cycle.transitions) == 10
