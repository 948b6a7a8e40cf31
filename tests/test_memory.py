"""What a stored slot, a table's marking and a search's expansion cost in bytes,
and the summaries evicted cases share.

Each bound was set from a measurement on CPython 3.11 plus about 10%:
- 22 B held per stored slot on the stream below, where the stored
  steps are the net's shared ones and each alignment keeps its events'
  refs in a tuple. A step built per event, which carries its event's
  ref, holds 93 B per slot there and fails it; a step that is two
  objects, a separate move object and an ``AlignmentState`` pointing at
  it, held 133 B.
- 327 B held per stored case on a stream of short cases, where the
  case record holds only its id and its alignment. A record that also
  kept its last update (an int of its own) and its forgetting rank held
  374 B per case and fails it. Unlike the other bounds this one has
  about 7% of headroom, not 10%: Python 3.10's dicts, whose entries
  are 8 B larger, add about 8 B per case in the store.
- 420 B held per marking of the parallel net's filled successor and
  intern tables, when a marking held a tuple of ``(place, count)`` pairs
  that the intern table shared. Markings that each hold their own pairs
  take 699 B and fail it. A marking that is a ``str`` encoding its
  entries holds 383 B there, and on CPython 3.11, where object sizes are
  known, a second bound of 410 B, closer than 10%, fails the tuple
  markings' 420 B.
- 423 B of peak per expansion of the search below. Entries that carry a
  ``(marking, pos)`` key tuple and their move cost, closed in one dict
  keyed by those tuples, take 522 B and fail it.
- 454 B of peak per event of a conforming search under a tight bound,
  which expands about one entry per event. A search that builds an
  ``(activity, None)`` pair per event and one lookahead float per
  position takes 542 B and fails it.
- 43.8 B held per stored slot after the experiment harness's measured
  pass of the shipped experiment stream under the baseline, which
  passes ``process`` no event ref. A pass that gives each event a fresh
  int ref, which its stored alignment keeps alive, holds 73.2 B and
  fails it. Object sizes differ between Python versions, so only 3.11
  checks this one.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from streamcc import (
    ConformanceEngine,
    CostModel,
    Policy,
    PolicyConfig,
    StreamSpec,
    cyclic_sequence_net,
    generate_log,
    replay,
)
from streamcc import PetriNet, PrefixAlignment, evaluation, petri, shortest_path_prefix_alignment
from streamcc.evaluation import ExperimentConfig, load_experiment_inputs, reference_costs
from streamcc.synthetic import step_label

from conftest import make_parallel_net

HELD_BYTES_PER_SLOT_BOUND = 24
HELD_BYTES_PER_CASE_BOUND = 350
HELD_BYTES_PER_MARKING_BOUND = 462
HELD_BYTES_PER_MARKING_AS_STRING_BOUND = 410
SEARCH_PEAK_BYTES_PER_EXPANSION_BOUND = 465
CONFORMING_SEARCH_PEAK_BYTES_PER_EVENT_BOUND = 500
MEASURED_PASS_HELD_BYTES_PER_SLOT_BOUND = 48


def _baseline_replay_held_bytes(spec: StreamSpec) -> tuple[ConformanceEngine, int]:
    """A baseline engine after a replay of the spec's seed-3 log, and the bytes it holds."""
    net = cyclic_sequence_net(10)
    events = list(replay(generate_log(spec, seed=3)))
    # fill the net's successor, intern and step tables first: they are the net's, not the engine's
    warm = ConformanceEngine(net)
    for e in events:
        warm.process(e.case_id, e.activity, e.arrival_index)
    del warm
    gc.collect()
    tracemalloc.start()
    try:
        engine = ConformanceEngine(net)
        for e in events:
            engine.process(e.case_id, e.activity, e.arrival_index)
        gc.collect()
        # the current size, not the peak: the peak moves with CPython's free lists
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return engine, held


def test_baseline_holds_few_bytes_per_stored_slot():
    spec = StreamSpec(cases=30, open_cases=6, base_length=60, length_jitter=4, noise_probability=0.5)
    engine, held = _baseline_replay_held_bytes(spec)
    slots = engine.stored_state_count
    assert slots > 1000
    assert held / slots <= HELD_BYTES_PER_SLOT_BOUND, f"{held / slots:.1f} B per slot"


def test_baseline_holds_few_bytes_per_stored_case():
    # short cases, so a case's fixed cost outweighs its slots
    spec = StreamSpec(cases=1300, open_cases=50, base_length=4, length_jitter=1, noise_probability=0.3)
    engine, held = _baseline_replay_held_bytes(spec)
    cases = len(engine.store)
    assert cases == spec.cases
    assert held / cases <= HELD_BYTES_PER_CASE_BOUND, f"{held / cases:.1f} B per case"
    # a record refers to its case id, its alignment and its type, and to nothing else
    for case_id, record in engine.store.items():
        assert record.case_id == case_id
        referents = [id(ref) for ref in gc.get_referents(record)]
        assert sorted(referents) == sorted(map(id, (record.case_id, record.prefix_alignment, type(record))))


def _filled_tables_bytes_per_marking() -> float:
    """The bytes the successor and intern tables hold per marking once filled for the parallel net."""
    net = make_parallel_net(5, 3)
    gc.collect()
    tracemalloc.start()
    try:
        todo = [net.initial_marking]
        seen = set(todo)
        while todo:
            for reached in net.successors(todo.pop()).values():
                if reached not in seen:
                    seen.add(reached)
                    todo.append(reached)
        del todo, seen
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    markings = len(net._table)
    # 4 ** 5 markings between the split and the join, and the two outside them
    assert markings == len(net._interned) == 1026
    return held / markings


def test_filled_tables_hold_few_bytes_per_marking():
    per_marking = _filled_tables_bytes_per_marking()
    assert per_marking <= HELD_BYTES_PER_MARKING_BOUND, f"{per_marking:.1f} B per marking"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="object sizes differ between Python versions")
def test_filled_tables_hold_markings_as_strings():
    per_marking = _filled_tables_bytes_per_marking()
    assert per_marking <= HELD_BYTES_PER_MARKING_AS_STRING_BOUND, f"{per_marking:.1f} B per marking"


def test_search_peak_bytes_per_expansion(monkeypatch):
    net = cyclic_sequence_net(10)
    trace = [step_label(i % 10) for i in range(300)]
    del trace[100]
    trace.insert(200, "X")
    expansions = 0
    enabled_transitions = PetriNet.enabled_transitions

    def counted(self, marking):
        nonlocal expansions
        expansions += 1
        return enabled_transitions(self, marking)

    # the first search counts expansions, one call each, and fills the net's tables
    monkeypatch.setattr(PetriNet, "enabled_transitions", counted)
    first = shortest_path_prefix_alignment(net, net.initial_marking, trace)
    monkeypatch.undo()
    gc.collect()
    tracemalloc.start()
    try:
        second = shortest_path_prefix_alignment(net, net.initial_marking, trace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second == first and second.fitness_cost == 2
    assert expansions > 500
    assert peak / expansions <= SEARCH_PEAK_BYTES_PER_EXPANSION_BOUND, f"{peak / expansions:.1f} B per expansion"


def test_conforming_search_peak_bytes_per_event():
    net = cyclic_sequence_net(10)
    trace = [step_label(i % 10) for i in range(2000)]
    # the first search fills the net's tables
    first = shortest_path_prefix_alignment(net, net.initial_marking, trace, upper_bound=1.0)
    gc.collect()
    tracemalloc.start()
    try:
        second = shortest_path_prefix_alignment(net, net.initial_marking, trace, upper_bound=1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert second == first and second.fitness_cost == 0
    per_event = peak / len(trace)
    assert per_event <= CONFORMING_SEARCH_PEAK_BYTES_PER_EVENT_BOUND, f"{per_event:.1f} B per event"


def _run_bounded_cases(monkeypatch, cap: int):
    monkeypatch.setattr(petri, "SUCCESSOR_TABLE_CAP", cap)
    net = cyclic_sequence_net(10)
    config = PolicyConfig(Policy.BOUNDED_CASES, n=5, cost_model=CostModel(0.05, 0.1, 0.3, 0.01))
    engine = ConformanceEngine(net, config)
    spec = StreamSpec(cases=300, open_cases=40, base_length=8, noise_probability=0.5)
    outcomes = []
    for e in replay(generate_log(spec, seed=11)):
        outcomes.append(repr(engine.process(e.case_id, e.activity, e.arrival_index)))
        assert len(engine._shared_summaries) <= cap
    return engine, outcomes


def test_evicted_cases_share_equal_summaries_up_to_the_cap(monkeypatch):
    shared, shared_outcomes = _run_bounded_cases(monkeypatch, 16)
    unshared, unshared_outcomes = _run_bounded_cases(monkeypatch, 0)
    assert shared_outcomes == unshared_outcomes
    summaries = [s for _, s in shared.repo.items()]
    assert len(summaries) > 200
    # the table is full, and R_C holds both shared summaries and, past the
    # cap, equal summaries built afresh
    assert len(shared._shared_summaries) == 16
    objects = len({id(s) for s in summaries})
    assert len({(s.summary, s.base_marking) for s in summaries}) < objects < len(summaries)
    assert not unshared._shared_summaries
    # an int 0 kappa_o would print as 0, not 0.0, and change every digest of the outcomes
    for engine in (shared, unshared):
        for _, summary in engine.repo.items():
            assert isinstance(summary, PrefixAlignment)
            assert type(summary.summary) is float


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="object sizes differ between Python versions")
def test_measured_pass_holds_no_ref_per_stored_slot(data_dir, monkeypatch):
    config = ExperimentConfig.from_json(data_dir / "experiment_example.json")
    net, events = load_experiment_inputs(config)
    # the reference pass fills the net's tables, which are the net's, not the engine's
    ref_costs = reference_costs(net, events)
    engines = []

    class KeptEngine(ConformanceEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(evaluation, "ConformanceEngine", KeptEngine)
    gc.collect()
    tracemalloc.start()
    try:
        run = evaluation._measured_pass(
            net, events, ref_costs, config.window_size, config.search_budget, 1, PolicyConfig(Policy.BASELINE)
        )
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.error is None
    (engine,) = engines
    slots = engine.stored_state_count
    assert slots > 4000
    assert held / slots <= MEASURED_PASS_HELD_BYTES_PER_SLOT_BOUND, f"{held / slots:.1f} B per slot"
