"""Doubly optimal multicast planning over weighted connected graphs.

The pipeline is: extract the minimum spanning tree, root it, keep at most D
children per node (cheapest edges first) to obtain an embedded D-ary tree,
then place leaders as ``assign_leaders`` does, at the digit-paths of an
optimal prefix code for their importance distribution. The embedded tree is
its ordered child lists alone: a leader's codeword, read as child slots
from the root, is descended down them to give its vertex and its route in
one walk, the paper's prefix free path. The resulting plan
is optimal twice over: the carrier tree has minimal total weight, and the
placement has minimal expected hop depth among all prefix-free placements.

When a codeword addresses a node the embedded tree does not have, the graph
simply cannot host that placement at the requested arity and planning fails
with :class:`CapacityExceeded`; relax mode's one loop shifts every path
behind zero digits until it fits, a heuristic, not an optimality claim.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

from .graphs import WeightedGraph, _hop_levels, _is_mst, minimum_spanning_tree
from .hierarchy import LeaderAssignment
from .source_coding import ProbabilityMassFunction, _huffman_paths, _integer, _path_text


class CapacityExceeded(ValueError):
    """The embedded tree has no node at a codeword's digit-path."""


@dataclass(frozen=True)
class EmbeddedDaryTree:
    """A rooted, arity-bounded subtree of a spanning tree.

    ``children`` lists each retained vertex's retained children in slot
    order, and it is the only record of the tree: a digit-path addresses
    the vertex reached by taking child slot ``digit`` at each step down
    from the root, as :meth:`descend` does. Vertices cut off by the arity
    bound are listed in ``pruned``.
    """

    root: object
    arity: int
    children: dict   # retained vertex -> tuple of retained children, slot order
    depth: int       # greatest level of a retained vertex
    pruned: tuple    # vertices unreachable for placement, sorted

    def descend(self, vertex, digits) -> tuple | None:
        """The vertices passed from ``vertex`` down child slots ``digits``,
        or None at the first digit that has no child."""
        walk = []
        for digit in digits:
            kids = self.children[vertex]
            if not 0 <= digit < len(kids):
                return None
            vertex = kids[digit]
            walk.append(vertex)
        return tuple(walk)


@dataclass(frozen=True)
class MulticastPlan:
    """A complete placement: each leader sits where its route from the root ends."""

    root: object
    assignment: LeaderAssignment  # arity, digit paths in the embedded tree, importances
    leader_route: dict     # label -> vertex sequence from root to the leader
    carrier: tuple         # (u, v, w) edges of the minimum spanning tree
    mst_weight: float
    relaxed: bool = False


@dataclass(frozen=True)
class PlanAudit:
    """Outcome of checking a plan against its graph.

    ``mst_weight_minimal`` holds when the plan's carrier is a minimum
    spanning tree of the graph, by the cycle-property certificate, and its
    weights sum exactly to the reported ``mst_weight``.
    """

    mst_weight_minimal: bool
    prefix_free: bool
    routes_follow_tree: bool

    @property
    def ok(self) -> bool:
        return self.mst_weight_minimal and self.prefix_free and self.routes_follow_tree


def embed_dary_tree(spanning_tree: WeightedGraph, root, d: int) -> EmbeddedDaryTree:
    """Root the tree and retain at most D children per node.

    Children are kept in increasing order of (edge weight, vertex rank),
    the rank being the vertex's place in ``graphs._vertex_ranks`` order;
    the digit of a child is its index among the retained siblings. Dropping
    a child discards its entire subtree, and every vertex so discarded is
    reported in ``pruned``. The tree is rooted by :func:`_hop_levels`; with
    n-1 edges, reaching every vertex rules out a cycle. Each edge then runs
    from the lower level to the higher, and one pass in BFS order, which
    puts a parent before its children, sorts and cuts the child list of
    each retained vertex that has one; a leaf gets no list, only its empty
    entry. No digit-path is stored, :meth:`EmbeddedDaryTree.descend` walks
    one down the lists.
    """
    d = _integer("arity", d, 2)
    rank = spanning_tree._order_key
    if root not in rank:
        raise ValueError(f"root {root!r} is not a vertex")
    n = len(spanning_tree.vertices)
    if len(spanning_tree.edges) != n - 1:
        raise ValueError(
            f"not a tree: {len(spanning_tree.edges)} edges on {n} vertices"
        )
    level = _hop_levels(spanning_tree.graph(), root)
    if len(level) != n:
        raise ValueError("not a tree: graph is disconnected")

    kids = defaultdict(list)
    for u, v, w in spanning_tree.edges:
        if level[u] > level[v]:
            u, v = v, u
        kids[u].append((w, rank[v], v))
    # a vertex below a dropped child never becomes a key
    children: dict = {root: ()}
    for v in level:
        if v in kids and v in children:
            children[v] = kept = tuple([k for _, _, k in sorted(kids[v])[:d]])
            children.update(dict.fromkeys(kept, ()))

    return EmbeddedDaryTree(
        root=root,
        arity=d,
        children=children,
        depth=max(map(level.__getitem__, children)),
        pruned=tuple(sorted((v for v in level if v not in children), key=rank.__getitem__)),
    )


def plan_multicast(
    g: WeightedGraph,
    root,
    importance: ProbabilityMassFunction,
    d: int = 2,
    relax: bool = False,
) -> MulticastPlan:
    """Plan a multicast: MST, embedded D-ary tree, prefix-free placement.

    Leaders go where :func:`assign_leaders` puts them, in one assignment
    built after the shift. Raises :class:`CapacityExceeded` for the first
    leader, in label order, whose path the embedded tree lacks. With
    ``relax=True`` one loop shifts every path behind 0, 1, ... zero digits,
    up to the embedded tree's depth, and stops at the first shift that fits;
    a shifted plan is marked ``relaxed`` and forfeits the expected-depth
    optimality claim.

    Extending every length by ``b`` yields the optimal codewords behind
    ``b`` zero digits: canonical assignment depends only on the differences
    between consecutive lengths, so its integer values do not change.
    """
    mst = minimum_spanning_tree(g)
    emb = embed_dary_tree(mst, root, d)
    paths = _huffman_paths(importance, d)
    longest = max(map(len, paths.values()))
    bumps = range(max(1, emb.depth - longest + 1)) if relax else (0,)
    # the vertices at 0, 1, ... zero digits, for as long as the tree has them
    run = [root]
    for bump in bumps:
        if len(run) == bump:
            run += emb.descend(run[-1], (0,)) or ()
        # each leader's one walk is its route; a missing node stops the shift
        routes = {}
        for label, p in paths.items():
            walk = emb.descend(run[-1], p) if len(run) > bump else None
            if walk is None:
                break
            routes[label] = (*run, *walk)
        else:
            break
    else:
        raise CapacityExceeded(
            f"no tree node at digit-path {_path_text((0,) * bump + p)!r} "
            f"for leader {label!r}; the embedded tree cannot host this "
            f"placement at arity {d}"
        )
    shifted = {label: (0,) * bump + p for label, p in paths.items()}
    return MulticastPlan(
        root=root,
        assignment=LeaderAssignment(d, shifted, importance),
        leader_route=routes,
        carrier=mst.edges,
        mst_weight=mst.total_weight(),
        relaxed=bump > 0,
    )


def plan_cost_audit(plan: MulticastPlan, g: WeightedGraph) -> PlanAudit:
    """Check a plan against the graph it was built from.

    The plan's carrier edges are its certificate: they must form a minimum
    spanning tree of ``g`` (checked exactly by the cycle property, at any
    size) whose weights sum to the reported ``mst_weight``. No leader
    digit-path may be a prefix of another, as the assignment's own
    ``security`` verdict says, and every route must walk carrier edges from
    the root; where it ends is where its leader sits.
    """
    weight_ok = _is_mst(g, plan.carrier) and (
        math.fsum(w for _, _, w in plan.carrier) == plan.mst_weight
    )

    steps = {(u, v) for u, v, _ in plan.carrier}
    steps |= {(v, u) for u, v in steps}
    return PlanAudit(
        mst_weight_minimal=weight_ok,
        prefix_free=plan.assignment.security.secure,
        routes_follow_tree=all(
            route[0] == plan.root and steps.issuperset(zip(route, route[1:]))
            for route in plan.leader_route.values()
        ),
    )
