"""Same behaviour: recorded outputs that a behaviour-preserving change must reproduce.

``streamcc check`` output for every policy and format is compared byte for
byte with the files under ``tests/golden/``. Each policy's full
``EventOutcome`` sequence on one seeded cycle10 stream is compared by its
SHA-256, and so are the alignments ``shortest_path_prefix_alignment``
returns for the oracle's random nets and traces: costs alone would not show
a different choice among optimal alignments, which changes later extensions
and truncation summaries. To record new values after an intended change of
behaviour, write the ``check`` output to the golden files and copy the
digests that the failing assertions print (``pytest -vv`` prints them whole).
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from streamcc import (
    DEFAULT_COST_MODEL,
    ConformanceEngine,
    CostModel,
    Policy,
    PolicyConfig,
    StreamSpec,
    cyclic_sequence_net,
    generate_log,
    policies,
    replay,
    shortest_path_prefix_alignment,
)
from streamcc.cli import main

from oracles import random_net, random_trace

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

CHECK_POLICIES = {
    "baseline": [],
    "bounded-states": ["--w", "2"],
    "bounded-cases": ["--n", "2"],
    "combined": ["--w", "2", "--n", "2"],
}

STREAM_SPEC = StreamSpec(cases=80, open_cases=20, noise_probability=0.5)
STREAM_SEED = 11

OUTCOME_DIGESTS = {
    "baseline": "adc3e78655e65af9ffda0bf993a03db8645f30b7c3eb033ce046165e89235d3d",
    "bounded-states-w2": "0d2642be7b0f8b65c954173442406cb59af700fdd9f81a413c13da468fe71546",
    "bounded-cases-n5": "6416dafc5071d16af4ac3cd1a28265fc063202b7caaa6de69add397304da3d41",
    "combined-w2-n5": "69718d69d917605633c96b7202bccf922d0b9e22eea99491da008914b4e0fda4",
}

SEARCH_COST_MODELS = {
    "default": DEFAULT_COST_MODEL,
    "fractional": CostModel(0.05, 0.1, 0.3, 0.01),
    # silent moves cost as much as model moves, so their preference decides ties
    "unit-silent": CostModel(0.0, 1.0, 1.0, 1.0),
}
SEARCH_SEEDS = range(200)
SEARCH_DIGESTS = {
    "default": "9358b90e6297656af28da199bb013cb1a303909afed3d51c45f76a95f0f36445",
    "fractional": "ee2844b5b053bfc5d18f2d3bed6d258fed1a0f8f08380f7cceb675206765e87d",
    "unit-silent": "dc4af0e84d4954103b432264ea786ec24a89ac73f540d7399b048adc42a01dd0",
}

CONFIGS = (
    PolicyConfig(Policy.BASELINE),
    PolicyConfig(Policy.BOUNDED_STATES, w=2),
    PolicyConfig(Policy.BOUNDED_CASES, n=5),
    PolicyConfig(Policy.COMBINED, w=2, n=5),
)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("policy", sorted(CHECK_POLICIES))
def test_check_output_matches_golden(policy, fmt, data_dir, capsys):
    code = main([
        "check",
        "--model", str(data_dir / "branching.pnml"),
        "--log", str(data_dir / "sample_stream.csv"),
        "--policy", policy,
        *CHECK_POLICIES[policy],
        "--format", fmt,
    ])
    assert code == 0
    expected = (GOLDEN_DIR / f"check_{policy}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.label)
def test_outcome_sequence_digest(config, monkeypatch):
    truncations = 0
    truncate = policies.truncate_states

    def counting_truncate(pa, w):
        nonlocal truncations
        result = truncate(pa, w)
        truncations += result is not pa
        return result

    monkeypatch.setattr(policies, "truncate_states", counting_truncate)
    engine = ConformanceEngine(cyclic_sequence_net(10), config)
    evictions = 0
    evict = engine._evict_one

    def counting_evict():
        nonlocal evictions
        evictions += 1
        evict()

    engine._evict_one = counting_evict
    digest = hashlib.sha256()
    for event in replay(generate_log(STREAM_SPEC, seed=STREAM_SEED)):
        outcome = engine.process(event.case_id, event.activity, event.arrival_index)
        digest.update((repr(outcome) + "\n").encode())

    assert engine.search_count > 0
    assert (truncations > 0) == (config.w is not None)
    assert (evictions > 0) == (config.n is not None)
    assert digest.hexdigest() == OUTCOME_DIGESTS[config.label]


@pytest.mark.parametrize("cost_name", sorted(SEARCH_COST_MODELS))
def test_search_result_digest(cost_name):
    cost_model = SEARCH_COST_MODELS[cost_name]
    digest = hashlib.sha256()
    for seed in SEARCH_SEEDS:
        rng = random.Random(seed)
        net = random_net(rng)
        trace = [(activity, i) for i, activity in enumerate(random_trace(net, rng))]
        result = shortest_path_prefix_alignment(net, net.initial_marking, trace, cost_model)
        digest.update((repr((result.base_marking, result.states)) + "\n").encode())
    assert digest.hexdigest() == SEARCH_DIGESTS[cost_name]
