"""``check`` output pinned byte for byte on a noisy stream with evictions.

The golden log has three fitting cases, so it pins little of ``check``'s
per-case rows. This stream is a seeded noisy cycle10 log of 60 cases,
8 open at a time; with a case limit of 3 most cases are evicted, many of
them with a carried cost, and come back from their summaries. Each
digest is the sha256 of the report's bytes.
"""

from __future__ import annotations

import csv
import hashlib

import pytest

from streamcc.cli import main
from streamcc.pnml import to_pnml
from streamcc.synthetic import StreamSpec, cyclic_sequence_net, generate_log

SPEC = StreamSpec(cases=60, open_cases=8, noise_probability=0.6)
SEED = 7

POLICY_FLAGS = {
    "baseline": [],
    "bounded-states": ["--w", "2"],
    "bounded-cases": ["--n", "3"],
    "combined": ["--w", "2", "--n", "3"],
}

DIGESTS = {
    ("baseline", "csv"):
        "2ae36ac354537418131b499dd2940c85c29f747111faef4fa0081e60a67a35e1",
    ("baseline", "json"):
        "143ec1a31ff76e35022f1d5b321382651033f05ec2236a6e461ff37955fcabaa",
    ("bounded-states", "csv"):
        "922df33fd681ec2f84cc3b0b54d2a1910dce76958b5c5adc2ece68fb8b1ba77c",
    ("bounded-states", "json"):
        "2dcee5d92106b4a79b1cff55e47c33a5c7cdc5d83756da39376ab3094cd3bfe0",
    ("bounded-cases", "csv"):
        "ea4ef313b6bc351a9e5106314f296b3241a4fa3be5272aae1b5360c7bcb96e97",
    ("bounded-cases", "json"):
        "66c1e877618d7c5a459beafc089c0a6bb54d2c19d381feb356ab739f7094a676",
    ("combined", "csv"):
        "b7f505ec82aeae963f55c364635b3f268646d948d61b9854ef90970c9d78b48d",
    ("combined", "json"):
        "9bf7cc50589e5ca8a66680c16a9e3c620f7f82df785323da69365424e980821b",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("check-output")
    model = folder / "cycle10.pnml"
    model.write_text(to_pnml(cyclic_sequence_net(10)), encoding="utf-8")
    log = folder / "noisy.csv"
    with open(log, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["case_id", "activity", "timestamp"])
        for event in generate_log(SPEC, SEED).events:
            writer.writerow([event.case_id, event.activity, event.timestamp.isoformat(sep=" ")])
    return model, log


@pytest.mark.parametrize("policy, fmt", sorted(DIGESTS))
def test_check_output_bytes(policy, fmt, inputs, tmp_path):
    model, log = inputs
    out = tmp_path / f"check.{fmt}"
    argv = ["check", "--model", str(model), "--log", str(log), "--policy", policy, "--format", fmt]
    assert main(argv + POLICY_FLAGS[policy] + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DIGESTS[policy, fmt]


def test_evicted_cases_report_a_carried_cost(inputs, tmp_path):
    """The stream exercises what the digests pin: cases resumed from summaries that carry cost."""
    model, log = inputs
    out = tmp_path / "check.csv"
    argv = ["check", "--model", str(model), "--log", str(log), "--policy", "bounded-cases", "--n", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text(encoding="utf-8").splitlines()))
    assert len(rows) == SPEC.cases
    assert sum(float(row["residual_cost"]) > 0 for row in rows) >= 5
    assert sum(int(row["shortest_path"]) > 0 for row in rows) >= 5
