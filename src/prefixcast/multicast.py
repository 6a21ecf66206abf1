"""Doubly optimal multicast planning over weighted connected graphs.

The pipeline is: extract the minimum spanning tree, root it, keep at most D
children per node (cheapest edges first) to obtain an embedded D-ary tree,
then place leaders as ``assign_leaders`` does, at the digit-paths of an
optimal prefix code for their importance distribution. The resulting plan
is optimal twice over: the carrier tree has minimal total weight, and the
placement has minimal expected hop depth among all prefix-free placements.

When a codeword addresses a node the embedded tree does not have, the graph
simply cannot host that placement at the requested arity and planning fails
with :class:`CapacityExceeded`; relax mode's one loop shifts every path
behind zero digits until it fits, a heuristic, not an optimality claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .graphs import WeightedGraph, _is_mst, minimum_spanning_tree
from .hierarchy import DaryTree, LeaderAssignment, assign_leaders
from .source_coding import Codeword, ProbabilityMassFunction, prefix_violations


class CapacityExceeded(ValueError):
    """The embedded tree has no node at a codeword's digit-path."""


@dataclass(frozen=True)
class EmbeddedDaryTree:
    """A rooted, arity-bounded subtree of a spanning tree.

    Child slots are digit-indexed in retention order, so every retained
    vertex has a unique digit-path address from the root. Vertices cut off
    by the arity bound are listed in ``pruned``.
    """

    root: object
    arity: int
    children: dict   # vertex -> tuple of retained children, slot order
    parent: dict     # vertex -> parent vertex (root absent)
    vertex_at: dict  # digit path tuple -> vertex
    pruned: tuple    # vertices unreachable for placement, sorted

    @cached_property
    def _path_at(self) -> dict:
        return {v: path for path, v in self.vertex_at.items()}

    def path_of(self, vertex) -> tuple:
        return self._path_at[vertex]

    def graph_path(self, vertex) -> tuple:
        """Vertex sequence from the root to ``vertex`` along tree edges."""
        walk = [vertex]
        while walk[-1] != self.root:
            walk.append(self.parent[walk[-1]])
        return tuple(reversed(walk))

    def max_depth(self) -> int:
        return max(len(p) for p in self.vertex_at)


@dataclass(frozen=True)
class MulticastPlan:
    """A complete placement: who sits where and how traffic reaches them."""

    root: object
    assignment: LeaderAssignment  # arity, digit paths in the embedded tree, importances
    leader_vertex: dict    # label -> graph vertex
    leader_route: dict     # label -> vertex sequence from root
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

    Children are kept in increasing order of (edge weight, vertex rank);
    the digit of a child is its index among the retained siblings. Dropping
    a child discards its entire subtree, and every vertex so discarded is
    reported in ``pruned``. One breadth-first walk over (weight, rank,
    neighbour) lists built from the edges does all of this and proves the
    input a tree: with n-1 edges, reaching every vertex rules out a cycle.
    """
    if d < 2:
        raise ValueError(f"arity must be >= 2, got {d}")
    rank = spanning_tree.graph()._order_key
    if root not in rank:
        raise ValueError(f"root {root!r} is not a vertex")
    n = len(spanning_tree.vertices)
    if len(spanning_tree.edges) != n - 1:
        raise ValueError(
            f"not a tree: {len(spanning_tree.edges)} edges on {n} vertices"
        )

    near: dict = {v: [] for v in spanning_tree.vertices}
    for u, v, w in spanning_tree.edges:
        near[u].append((w, rank[v], v))
        near[v].append((w, rank[u], u))
    children: dict = {}
    parent: dict = {}
    vertex_at: dict = {(): root}
    reached = {root}
    # a vertex below a dropped child walks on with path None
    frontier = [(root, ())]
    while frontier:
        nxt = []
        for v, path in frontier:
            kids = [k for k in near[v] if k[2] not in reached]
            if path is None:
                reached.update(k[2] for k in kids)
                nxt.extend((k[2], None) for k in kids)
                continue
            kids.sort()
            keep = []
            for i, (_, _, w) in enumerate(kids):
                reached.add(w)
                if i < d:
                    keep.append(w)
                    parent[w] = v
                    vertex_at[path + (i,)] = w
                    nxt.append((w, path + (i,)))
                else:
                    nxt.append((w, None))
            children[v] = tuple(keep)
        frontier = nxt
    if len(reached) != n:
        raise ValueError("not a tree: graph is disconnected")

    return EmbeddedDaryTree(
        root=root,
        arity=d,
        children=children,
        parent=parent,
        vertex_at=vertex_at,
        pruned=tuple(sorted(reached.difference(vertex_at.values()), key=rank.__getitem__)),
    )


def plan_multicast(
    g: WeightedGraph,
    root,
    importance: ProbabilityMassFunction,
    d: int = 2,
    relax: bool = False,
) -> MulticastPlan:
    """Plan a multicast: MST, embedded D-ary tree, prefix-free placement.

    Leaders go where :func:`assign_leaders` puts them. Raises
    :class:`CapacityExceeded` for the first leader, in label order, whose
    path the embedded tree lacks. With ``relax=True`` one loop shifts every
    path behind 0, 1, ... zero digits, up to the embedded tree's depth, and
    stops at the first shift that fits; a plan so shifted is marked
    ``relaxed`` and forfeits the expected-depth optimality claim.

    Extending every length by ``b`` yields the optimal codewords behind
    ``b`` zero digits: canonical assignment depends only on the differences
    between consecutive lengths, so its integer values do not change.
    """
    mst = minimum_spanning_tree(g)
    emb = embed_dary_tree(mst, root, d)
    optimal = assign_leaders(importance, d)
    longest = optimal.tree.max_depth
    bumps = range(max(1, emb.max_depth() - longest + 1)) if relax else (0,)
    for bump in bumps:
        shifted = {label: (0,) * bump + p for label, p in optimal.leaders.items()}
        missing = next((label for label, p in shifted.items() if p not in emb.vertex_at), None)
        if missing is None:
            break
    else:
        raise CapacityExceeded(
            f"no tree node at digit-path {str(Codeword(shifted[missing]))!r} "
            f"for leader {missing!r}; the embedded tree cannot host this "
            f"placement at arity {d}"
        )
    leader_vertex = {label: emb.vertex_at[p] for label, p in shifted.items()}
    assignment = optimal
    if bump:
        assignment = LeaderAssignment(DaryTree(d, longest + bump), shifted, importance)
    return MulticastPlan(
        root=root,
        assignment=assignment,
        leader_vertex=leader_vertex,
        leader_route={label: emb.graph_path(v) for label, v in leader_vertex.items()},
        carrier=mst.edges,
        mst_weight=mst.total_weight(),
        relaxed=bump > 0,
    )


def plan_cost_audit(plan: MulticastPlan, g: WeightedGraph) -> PlanAudit:
    """Check a plan against the graph it was built from.

    The plan's carrier edges are its certificate: they must form a minimum
    spanning tree of ``g`` (checked exactly by the cycle property, at any
    size) whose weights sum to the reported ``mst_weight``. No leader
    digit-path may be a prefix of another (by :func:`prefix_violations`),
    and every route must walk carrier edges from the root to its leader's
    vertex.
    """
    weight_ok = _is_mst(g, plan.carrier) and (
        math.fsum(w for _, _, w in plan.carrier) == plan.mst_weight
    )

    prefix_free = not prefix_violations(list(plan.assignment.leaders.values()))

    tree_pairs = {(u, v) for u, v, _ in plan.carrier}
    routes_ok = True
    for label, route in plan.leader_route.items():
        if route[0] != plan.root or route[-1] != plan.leader_vertex[label]:
            routes_ok = False
            continue
        for u, v in zip(route, route[1:]):
            if (u, v) not in tree_pairs and (v, u) not in tree_pairs:
                routes_ok = False
    return PlanAudit(
        mst_weight_minimal=weight_ok,
        prefix_free=prefix_free,
        routes_follow_tree=routes_ok,
    )
