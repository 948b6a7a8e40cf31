"""Independent oracles and randomized fixtures used across the test suite.

The brute-force alignment cost enumerates every move sequence directly
from the net's firing semantics; it shares no code with the search under
test. Random nets follow a fixed recipe: an entry transition, a choice
of two branches (one bypassing), a parallel split/join pair, and one
loop back to the choice.
"""

from __future__ import annotations

import random

from streamcc import (
    DEFAULT_COST_MODEL,
    ConformanceEngine,
    CostModel,
    EventOutcome,
    Marking,
    PetriNet,
    StreamEvent,
    stored_state_count,
)

ALPHABET = ["A", "B", "C", "D", "E", "F", "G", "H", "K"]


def checked_replay(engine: ConformanceEngine, events: list[StreamEvent]) -> list[EventOutcome]:
    """Process a stream, asserting the engine's memory bounds after every event.

    Also checks the engine's slot gauge against the reference scan.
    """
    w = engine.config.w
    n = engine.config.n
    outcomes = []
    for event in events:
        outcomes.append(engine.process(event.case_id, event.activity, event.arrival_index))
        if w is not None:
            for record in engine.store.records():
                assert record.prefix_alignment.state_count <= max(w, 2), (
                    f"case {record.case_id} holds {record.prefix_alignment.state_count} states"
                )
        if n is not None:
            assert len(engine.store) <= n
        if w is not None and n is not None:
            limit = n * max(w, 2) + len(engine.repo)
            assert stored_state_count(engine.store, engine.repo) <= limit
        for case_id, _ in engine.repo.items():
            assert case_id not in engine.store, f"case {case_id} in both stores"
        assert engine.stored_state_count == stored_state_count(engine.store, engine.repo)
    return outcomes


def brute_force_min_cost(
    net: PetriNet,
    start: Marking,
    trace: list[str],
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> float:
    """Exact minimum prefix-alignment cost by exhaustive enumeration.

    Depth-first over all move sequences, pruning only (a) branches whose
    accumulated cost already reaches the best known total (all move costs
    are non-negative) and (b) revisits of a (marking, position) pair on
    the current path (a cycle never lowers the cost of reaching it).
    Starts from the always-available all-log-moves alignment.
    """
    best = [cost_model.log_cost * len(trace)]

    def explore(marking: Marking, pos: int, cost: float, on_path: set) -> None:
        if cost >= best[0]:
            return
        if pos == len(trace):
            best[0] = cost
            return
        key = (marking, pos)
        if key in on_path:
            return
        on_path.add(key)
        activity = trace[pos]
        explore(marking, pos + 1, cost + cost_model.log_cost, on_path)
        for t in sorted(net.enabled_transitions(marking)):
            fired = net.fire(marking, t)
            label = net.label(t)
            if label == activity:
                explore(fired, pos + 1, cost + cost_model.sync_cost, on_path)
            if label is None:
                explore(fired, pos, cost + cost_model.silent_model_cost, on_path)
            else:
                explore(fired, pos, cost + cost_model.model_cost, on_path)
        on_path.discard(key)

    explore(start, 0, 0.0, set())
    return best[0]


def random_net(rng: random.Random) -> PetriNet:
    """A small net with a choice, a parallel split/join and a loop.

    Eight transitions: entry t1, choice t2 (into the parallel block) vs
    t3 (bypass), split t4, parallel t5/t6, join t7, loop t8. Labels are
    drawn from a small alphabet; the choice pair may share a label, and
    the loop transition may be silent.
    """
    labels = {}
    labels["t1"] = rng.choice(ALPHABET)
    labels["t2"] = rng.choice(ALPHABET)
    labels["t3"] = labels["t2"] if rng.random() < 0.3 else rng.choice(ALPHABET)
    for t in ("t4", "t5", "t6"):
        labels[t] = rng.choice(ALPHABET)
    labels["t7"] = rng.choice(ALPHABET)
    labels["t8"] = None if rng.random() < 0.5 else rng.choice(ALPHABET)
    return PetriNet.build(
        places=["p0", "p1", "p2", "q1", "q2", "q3", "q4", "p3"],
        transitions=labels,
        arcs=[
            ("p0", "t1"),
            ("t1", "p1"),
            ("p1", "t2"),
            ("t2", "p2"),
            ("p1", "t3"),
            ("t3", "p3"),
            ("p2", "t4"),
            ("t4", "q1"),
            ("t4", "q2"),
            ("q1", "t5"),
            ("t5", "q3"),
            ("q2", "t6"),
            ("t6", "q4"),
            ("q3", "t7"),
            ("q4", "t7"),
            ("t7", "p3"),
            ("p3", "t8"),
            ("t8", "p1"),
        ],
        initial={"p0": 1},
        final={"p3": 1},
        name="random-choice-and-loop",
    )


def random_trace(net: PetriNet, rng: random.Random, max_len: int = 6) -> list[str]:
    """A model walk of visible labels with random noise edits, length 1..max_len."""
    marking = net.initial_marking
    walk: list[str] = []
    while len(walk) < max_len:
        enabled = sorted(net.enabled_transitions(marking))
        if not enabled:
            break
        t = rng.choice(enabled)
        marking = net.fire(marking, t)
        label = net.label(t)
        if label is not None:
            walk.append(label)
    trace = walk[: rng.randint(1, max_len)]
    for _ in range(rng.randint(0, 2)):
        if not trace:
            break
        roll = rng.random()
        pos = rng.randrange(len(trace))
        if roll < 0.3:
            trace[pos] = rng.choice(ALPHABET + ["Z"])
        elif roll < 0.55:
            trace.insert(pos, rng.choice(ALPHABET + ["Z"]))
        elif roll < 0.8 and len(trace) > 1:
            del trace[pos]
        elif pos + 1 < len(trace):
            trace[pos], trace[pos + 1] = trace[pos + 1], trace[pos]
    trace = trace[:max_len]
    if not trace:
        trace = [rng.choice(ALPHABET)]
    return trace
