"""Build a small process model by hand and align traces against it.

Shows the two computation routes: the cheap model-semantics extension
for events whose activity is directly enabled, and the shortest-path
search for everything else.
"""

from streamcc import (
    DEFAULT_COST_MODEL,
    PetriNet,
    PrefixAlignment,
    extend_model_semantics,
    shortest_path_prefix_alignment,
)

# A three-step sequence: A moves s -> q1, B moves q1 -> q2, C moves q2 -> f.
net = PetriNet.build(
    places=["s", "q1", "q2", "f"],
    transitions={"A": "A", "B": "B", "C": "C"},
    arcs=[("s", "A"), ("A", "q1"), ("q1", "B"), ("B", "q2"), ("q2", "C"), ("C", "f")],
    initial={"s": 1},
    final={"f": 1},
    name="seq-abc",
)

print("model:", net.name)
print("initial marking:", net.initial_marking)
print("enabled there:", sorted(net.enabled_transitions(net.initial_marking)))
after_a = net.fire(net.initial_marking, "A")
print("after firing A:", after_a, "-> enabled:", sorted(net.enabled_transitions(after_a)))
print()

# Route 1: the observed activity labels an enabled transition, so the
# prefix-alignment grows by one synchronous move at zero cost.
pa = PrefixAlignment.empty(net.initial_marking)
for index, activity in enumerate(["A", "B"]):
    pa = extend_model_semantics(net, pa, activity, index)
    print(f"extended by sync {activity}: cost={pa.fitness_cost}, marking={pa.current_marking}")
print()

# Route 2: when the observed activity is not enabled (B at the very start,
# or an unknown X anywhere), the search finds the cheapest explanation:
# an unexplainable event costs one log move, a skipped model step one
# model move.
for trace in (["B"], ["A", "X", "B"], ["X"]):
    result = shortest_path_prefix_alignment(net, net.initial_marking, trace)
    moves = [
        f"{s.kind.value}({s.activity or s.transition})"
        for s in result.states
    ]
    print(f"trace {trace}: cost={result.fitness_cost}, moves={moves}")

print()
print("default move costs:", DEFAULT_COST_MODEL)
