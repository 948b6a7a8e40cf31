"""PNML import/export for the supported subset of Petri net markup.

Supported: a single ``<net>`` (optionally wrapped in one ``<page>``) with
place, transition and arc elements, ``<initialMarking>`` token counts and
transition ``<name>`` labels. PNML has no standard final-marking element,
so the final marking is taken from (in order of precedence) the
``final_marking`` argument of ``load_pnml``, a sidecar JSON file
``<name>.final.json`` holding ``{"final_marking": {place: count}}``
(found by ``load_model``), or a pm4py-style ``<finalmarkings>``
annotation inside the net.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import IO, Mapping
from xml.etree import ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

from .errors import ParseError, ValidationError
from .petri import Marking, PetriNet
from .streams import local_name, xml_root

# Transitions whose label matches this pattern are treated as silent;
# PNML in the wild encodes taus inconsistently.
_SILENT_LABEL = re.compile(r"(?i)^tau|^τ$")


def _text_of(element: ET.Element, child: str) -> str | None:
    for node in element:
        if local_name(node.tag) == child:
            for sub in node:
                if local_name(sub.tag) == "text":
                    return (sub.text or "").strip()
            return (node.text or "").strip()
    return None


def json_int(value: object, name: str) -> int:
    """``value`` if it is a JSON integer; ``2.5``, ``true`` and ``"2"`` raise ParseError."""
    # bool is a subclass of int
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name!r} must be an integer, not {value!r}")
    return value


def load_final_marking_sidecar(path: str | Path) -> dict[str, int]:
    """Read ``{"final_marking": {place: count, ...}}`` from a JSON sidecar; counts are JSON integers."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read final-marking sidecar {path}: {exc}") from exc
    if not isinstance(payload, dict) or "final_marking" not in payload:
        raise ParseError(f"sidecar {path} has no 'final_marking' key")
    final = payload["final_marking"]
    if not isinstance(final, dict):
        raise ParseError(f"sidecar {path}: 'final_marking' must be an object, not {final!r}")
    try:
        return {place: json_int(count, f"final_marking.{place}") for place, count in final.items()}
    except ParseError as exc:
        raise ParseError(f"sidecar {path}: {exc}") from exc


def load_pnml(
    source: str | Path | bytes | IO[bytes],
    *,
    final_marking: Mapping[str, int] | None = None,
) -> PetriNet:
    """Parse a PNML document into a :class:`PetriNet`.

    Raises :class:`ParseError` for malformed XML and :class:`ValidationError`
    for dangling arcs, weighted arcs, duplicate ids or markings over
    unknown places.
    """
    root = xml_root(source, "PNML")
    nets = [el for el in root.iter() if local_name(el.tag) == "net"]
    if local_name(root.tag) == "net":
        nets = [root]
    if not nets:
        raise ParseError("document contains no <net> element")
    if len(nets) > 1:
        raise ValidationError("multiple <net> elements are not supported")
    net_el = nets[0]
    pages = [el for el in net_el if local_name(el.tag) == "page"]
    if len(pages) > 1:
        raise ValidationError("multiple <page> elements are not supported")
    body = pages[0] if pages else net_el

    places: list[str] = []
    transitions: dict[str, str | None] = {}
    # one id set and an insertion-ordered arc dict: each duplicate check is O(1)
    ids: set[str] = set()
    arcs: dict[tuple[str, str], None] = {}
    initial: dict[str, int] = {}

    for el in body:
        kind = local_name(el.tag)
        if kind == "place":
            pid = el.get("id")
            if not pid:
                raise ValidationError("<place> without id")
            if pid in ids:
                raise ValidationError(f"duplicate id {pid!r}")
            ids.add(pid)
            places.append(pid)
            tokens = _text_of(el, "initialMarking")
            if tokens:
                try:
                    count = int(tokens)
                except ValueError as exc:
                    raise ValidationError(f"place {pid!r}: bad initialMarking {tokens!r}") from exc
                if count < 0:
                    raise ValidationError(f"place {pid!r}: negative initialMarking")
                if count:
                    initial[pid] = count
        elif kind == "transition":
            tid = el.get("id")
            if not tid:
                raise ValidationError("<transition> without id")
            if tid in ids:
                raise ValidationError(f"duplicate id {tid!r}")
            ids.add(tid)
            label = _text_of(el, "name")
            if not label or _SILENT_LABEL.search(label):
                transitions[tid] = None
            else:
                transitions[tid] = label
        elif kind == "arc":
            source_id, target_id = el.get("source"), el.get("target")
            if not source_id or not target_id:
                raise ValidationError("<arc> without source/target")
            weight = _text_of(el, "inscription")
            if weight is not None and weight != "1":
                raise ValidationError(
                    f"arc {source_id!r}->{target_id!r} has weight {weight!r}; only weight-1 arcs are supported"
                )
            if (source_id, target_id) in arcs:
                raise ValidationError(f"duplicate arc {source_id!r}->{target_id!r}")
            arcs[source_id, target_id] = None

    for source_id, target_id in arcs:
        for endpoint in (source_id, target_id):
            if endpoint not in ids:
                raise ValidationError(f"arc references unknown node {endpoint!r}")

    final: Mapping[str, int] | None = final_marking
    if final is None:
        final = _embedded_final_marking(net_el)
    if final is None:
        final = {}

    try:
        return PetriNet.build(
            places=places,
            transitions=transitions,
            arcs=arcs,
            initial=initial,
            final=dict(final),
            name=net_el.get("id", ""),
        )
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _embedded_final_marking(net_el: ET.Element) -> dict[str, int] | None:
    for el in net_el.iter():
        if local_name(el.tag) != "finalmarkings":
            continue
        final: dict[str, int] = {}
        for marking_el in el:
            for place_el in marking_el:
                ref = place_el.get("idref") or place_el.get("id")
                if not ref:
                    raise ValidationError("<finalmarkings> place without idref")
                text = "1"
                for sub in place_el:
                    if local_name(sub.tag) == "text":
                        text = (sub.text or "1").strip()
                try:
                    count = int(text)
                except ValueError as exc:
                    raise ValidationError(f"finalmarkings place {ref!r}: bad count {text!r}") from exc
                if count:
                    final[ref] = final.get(ref, 0) + count
        return final
    return None


def load_model(path: str | Path) -> PetriNet:
    """Load a PNML file, discovering a ``<name>.final.json`` sidecar if present.

    The sidecar's final marking wins over a ``<finalmarkings>``
    annotation inside the document.
    """
    sidecar = Path(path).with_suffix(".final.json")
    final = load_final_marking_sidecar(sidecar) if sidecar.exists() else None
    return load_pnml(path, final_marking=final)


def to_pnml(net: PetriNet) -> str:
    """Serialize a net to PNML, embedding the final marking as an annotation."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<pnml>",
        f"  <net id={quoteattr(net.name or 'net1')} type=\"http://www.pnml.org/version-2009/grammar/ptnet\">",
        "    <page id=\"page1\">",
    ]
    initial = net.initial_marking.as_dict()
    for pid in sorted(net.places):
        count = initial.get(pid, 0)
        if count:
            lines.append(f"      <place id={quoteattr(pid)}>")
            lines.append(f"        <initialMarking><text>{count}</text></initialMarking>")
            lines.append("      </place>")
        else:
            lines.append(f"      <place id={quoteattr(pid)}/>")
    for tid in sorted(net.transitions):
        label = net.labels.get(tid)
        if label is None:
            lines.append(f"      <transition id={quoteattr(tid)}/>")
        else:
            lines.append(f"      <transition id={quoteattr(tid)}>")
            lines.append(f"        <name><text>{escape(label)}</text></name>")
            lines.append("      </transition>")
    for idx, (source, target) in enumerate(sorted(net.arcs), start=1):
        lines.append(
            f"      <arc id=\"a{idx}\" source={quoteattr(source)} target={quoteattr(target)}/>"
        )
    lines.append("    </page>")
    if net.final_marking.entries:
        lines.append("    <finalmarkings>")
        lines.append("      <marking>")
        for place, count in net.final_marking.entries:
            lines.append(f"        <place idref={quoteattr(place)}><text>{count}</text></place>")
        lines.append("      </marking>")
        lines.append("    </finalmarkings>")
    lines.append("  </net>")
    lines.append("</pnml>")
    return "\n".join(lines) + "\n"
