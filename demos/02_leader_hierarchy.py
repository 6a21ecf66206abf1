# Leader placement in a D-ary control tree.
#
# Important leaders should sit near the root where messages reach them in
# fewer hops, but no leader may sit on the path to another one, otherwise
# traffic addressed deeper necessarily transits (and leaks to) the shallower
# leader. That no-ancestor rule is exactly prefix-freeness on the digit
# paths, so an optimal code doubles as an optimal placement.

from prefixcast import (
    assign_leaders,
    last_link_failure_probability,
    path_reliability,
    shannon_entropy,
    total_nodes,
    verify_secure,
)
from prefixcast import ProbabilityMassFunction

importance = ProbabilityMassFunction.from_pairs(
    (("relay-hub", 0.5), ("storage", 0.2), ("uplink", 0.2), ("spare", 0.1))
)

assignment = assign_leaders(importance, d=2)
print("binary tree, depth", assignment.depth,
      "holds", total_nodes(assignment.arity, assignment.depth), "nodes")
for label in importance.labels():
    path = assignment.leaders[label]
    print(f"  {label:>9} at {''.join(map(str, path))}  depth {len(path)}")

print("expected depth", assignment.expected_depth())
print("entropy floor ", shannon_entropy(importance, base=2.0))
print("kraft sum     ", assignment.depth_kraft_sum())

report = verify_secure(assignment)
print("placement secure?", report.secure)

# node counts for wider trees; the root level is the single j=0 node
for d in (2, 3, 4):
    print(f"D={d}: a depth-3 tree holds {total_nodes(d, 3)} nodes")

print()

# Every hop is a radio link that fails independently with probability q.
# A leader at depth n hears the root only if all n links hold.
q = 0.1
for depth in (1, 2, 5, 10):
    alive = path_reliability(q, depth)
    near_miss = last_link_failure_probability(q, depth)
    print(f"depth {depth:2d}: reachable {alive:.4f}, lost on final hop {near_miss:.4f}")
