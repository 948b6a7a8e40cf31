"""What a stored slot, a table's marking and a search's expansion cost in bytes,
and the summaries evicted cases share.

Each bound was set from a measurement on CPython 3.11 plus about 10%:
- 93 B held per stored slot on the stream below. A stored step that is
  two objects, a ``Move`` and an ``AlignmentState`` pointing at it, holds
  133 B per slot there and fails it.
- 420 B held per marking of the parallel net's filled successor and
  intern tables. Markings that each hold their own ``(place, count)``
  pairs take 699 B and fail it.
- 423 B of peak per expansion of the search below. Entries that carry a
  ``(marking, pos)`` key tuple and their move cost, closed in one dict
  keyed by those tuples, take 522 B and fail it.
"""

from __future__ import annotations

import gc
import tracemalloc

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
from streamcc import PetriNet, petri, shortest_path_prefix_alignment
from streamcc.alignment import SummaryState
from streamcc.synthetic import step_label

from conftest import make_parallel_net

HELD_BYTES_PER_SLOT_BOUND = 103
HELD_BYTES_PER_MARKING_BOUND = 462
SEARCH_PEAK_BYTES_PER_EXPANSION_BOUND = 465


def test_baseline_holds_few_bytes_per_stored_slot():
    net = cyclic_sequence_net(10)
    spec = StreamSpec(cases=30, open_cases=6, base_length=60, length_jitter=4, noise_probability=0.5)
    events = list(replay(generate_log(spec, seed=3)))
    # fill the net's successor and intern tables first: they are the net's, not the engine's
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
    slots = engine.stored_state_count
    assert slots > 1000
    assert held / slots <= HELD_BYTES_PER_SLOT_BOUND, f"{held / slots:.1f} B per slot"


def test_filled_tables_hold_few_bytes_per_marking():
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
    assert markings == 1026
    assert held / markings <= HELD_BYTES_PER_MARKING_BOUND, f"{held / markings:.1f} B per marking"


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
    assert len({(s.kappa_o, s.carry_marking) for s in summaries}) < objects < len(summaries)
    assert not unshared._shared_summaries
    # an int 0 kappa_o would print as 0, not 0.0, and change every digest of the outcomes
    for engine in (shared, unshared):
        for _, summary in engine.repo.items():
            assert isinstance(summary, SummaryState)
            assert type(summary.kappa_o) is float
