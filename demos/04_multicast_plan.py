# Doubly optimal multicast: cheapest carrier tree, shallowest placement.
#
# The plan is built in three moves. Take the minimum spanning tree of the
# deployment graph, root it at the gateway and cap each node at D children
# (cheapest first) so every surviving vertex gets a digit address, then let
# an optimal prefix code decide which leader lives at which address.

from pathlib import Path

from prefixcast import CapacityExceeded, plan_multicast, plan_cost_audit
from prefixcast.fileio import parse_pmf, parse_weighted_graph

data = Path(__file__).parent / "data"
g = parse_weighted_graph((data / "network.edges").read_text(), "network.edges")
importance = parse_pmf((data / "importance.pmf").read_text(), "importance.pmf")

print("deployment:", len(g.vertices), "nodes,", len(g.edges), "links")

plan = plan_multicast(g, root="gw", importance=importance, d=2)
print("carrier tree weight", plan.mst_weight)
print("expected leader depth", plan.expected_depth)
print("address kraft sum", plan.kraft_sum())
print("prefix-free?", plan.security.secure)
for label in importance.labels():
    route = "->".join(str(v) for v in plan.leader_route[label])
    digits = "".join(str(d) for d in plan.leader_digits[label])
    print(f"  {label:>7} @ {digits:<4} via {route}")

# Check the plan against the graph. The carrier tree is its own certificate:
# the audit confirms it is a minimum spanning tree by the cycle property
# (every other edge closes a cycle of no heavier carrier edges), exactly and
# at any graph size.
audit = plan_cost_audit(plan, g)
print("audit: weight minimal", audit.mst_weight_minimal,
      "| prefix free", audit.prefix_free,
      "| routes on tree", audit.routes_follow_tree)

print()

# Not every graph can host every demand. A chain has no room for two
# mutually prefix-free addresses, and the planner says so rather than
# silently placing one leader on the path to the other.
from prefixcast import ProbabilityMassFunction, WeightedGraph

chain = WeightedGraph(("a", "b", "c"), (("a", "b", 1.0), ("b", "c", 1.0)))
two = ProbabilityMassFunction.from_pairs((("x", 0.6), ("y", 0.4)))
try:
    plan_multicast(chain, "a", two)
except CapacityExceeded as err:
    print("chain refused:", err)
try:
    plan_multicast(chain, "a", two, relax=True)
except CapacityExceeded as err:
    print("relaxing cannot help either:", err)
