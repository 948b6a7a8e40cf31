"""Walk through the three bounded-memory policies on a tiny stream.

The point of the carry-forward summary: when a prefix is forgotten, its
marking and accumulated cost survive, so later events of the case are
not punished for the missing prefix.
"""

from streamcc import ConformanceEngine, Policy, PolicyConfig, cyclic_sequence_net

net = cyclic_sequence_net(10)  # A0 -> A1 -> ... -> A9 -> back to A0

print("== bounded states (w=2): long conformant case stays at 2 state slots ==")
engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=2))
for i in range(12):
    outcome = engine.process("order-1", f"A{i % 10}", i)
    pa = engine.store.get("order-1").prefix_alignment
    print(
        f"event A{i % 10}: cost={outcome.effective_cost}, "
        f"slots={pa.state_count}, "
        f"carry={pa.base_marking if pa.summary is not None else '-'}"
    )

print()
print("== bounded cases (n=1): eviction to the summary repository and back ==")
engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_CASES, n=1))
script = [
    ("order-1", "A0"),
    ("order-1", "A1"),
    ("order-2", "A0"),  # evicts order-1: only its summary remains
    ("order-1", "A2"),  # orphan event: resumes from the carried marking
    ("order-1", "A3"),
]
for i, (case, activity) in enumerate(script):
    outcome = engine.process(case, activity, i)
    print(
        f"{case} {activity}: cost={outcome.effective_cost} via {outcome.method.value}; "
        f"stored cases={len(engine.store)}, summaries={len(engine.repo)}"
    )
print("order-1 stayed conformant across its eviction: no missing-prefix penalty.")

print()
print("== combined (w=2, n=1): both limits, still zero cost for fitting cases ==")
engine = ConformanceEngine(net, PolicyConfig(Policy.COMBINED, w=2, n=1))
for i, (case, activity) in enumerate(script):
    outcome = engine.process(case, activity, i)
    print(
        f"{case} {activity}: cost={outcome.effective_cost}, "
        f"total stored states={engine.stored_state_count}"
    )

print()
print("== a noisy case accumulates residual cost in its summary ==")
engine = ConformanceEngine(net, PolicyConfig(Policy.BOUNDED_STATES, w=1))
for i, activity in enumerate(["A0", "ZZ", "A1", "ZZ", "A2"]):
    outcome = engine.process("noisy", activity, i)
    print(
        f"event {activity}: effective cost={outcome.effective_cost} "
        f"(residual carried by summary: {outcome.residual_cost})"
    )
