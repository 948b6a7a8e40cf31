"""The benchmark's tracer still counts what the engine does to R_C.

``bench/tracing.py`` patches ``SummaryRepository.put`` and ``pop`` through
the class ``__dict__`` to count evictions and resumptions. These tests run
it around a bounded-cases replay that evicts and resumes cases.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from streamcc import ConformanceEngine, Policy, PolicyConfig, StreamSpec, cyclic_sequence_net, generate_log, replay
from streamcc import policies

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_tracer_counts_evictions_and_resumptions():
    net = cyclic_sequence_net(10)
    events = list(replay(generate_log(StreamSpec(cases=60, open_cases=12, noise_probability=0.3), seed=7)))
    engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_CASES, n=4))
    evictions = 0
    evict_one = engine._evict_one

    def counted_evict_one():
        nonlocal evictions
        evictions += 1
        evict_one()

    engine._evict_one = counted_evict_one
    repo_names = dict(vars(policies.SummaryRepository))
    resumed = 0
    tracer = tracing.Tracer()
    with tracer:
        for event in events:
            resumed += event.case_id in engine.repo
            engine.process(event.case_id, event.activity, event.arrival_index)
    assert evictions > 0 and resumed > 0
    assert tracer.count("policies.repo_put") == evictions
    assert tracer.sums["policies.resumptions"] == resumed
    assert dict(vars(policies.SummaryRepository)) == repo_names
