"""Doubly optimal multicast planning over weighted connected graphs.

The pipeline is: extract the minimum spanning tree, root it, keep at most D
children per node (cheapest edges first) to obtain an embedded D-ary tree,
then place leaders at the digit-paths of an optimal prefix code for their
importance distribution. The resulting plan is optimal twice over: the
carrier tree has minimal total weight, and the placement has minimal
expected hop depth among all prefix-free placements.

When a codeword addresses a node the embedded tree does not have, the graph
simply cannot host that placement at the requested arity and planning fails
with :class:`CapacityExceeded`; the relax mode retries with uniformly longer
codewords and is a heuristic, not an optimality claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .graphs import WeightedGraph, _is_mst, minimum_spanning_tree
from .hierarchy import DaryTree, LeaderAssignment, SecurityReport, verify_secure
from .source_coding import (
    CodeLengthSet,
    ProbabilityMassFunction,
    huffman_code,
    kraft_sum,
    prefix_violations,
)


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
    arity: int
    leader_vertex: dict    # label -> graph vertex
    leader_digits: dict    # label -> digit path in the embedded tree
    leader_route: dict     # label -> vertex sequence from root
    importance: ProbabilityMassFunction
    carrier: tuple         # (u, v, w) edges of the minimum spanning tree
    mst_weight: float
    expected_depth: float
    security: SecurityReport
    relaxed: bool = False

    def kraft_sum(self) -> float:
        return kraft_sum(
            CodeLengthSet(
                tuple(len(p) for p in self.leader_digits.values()), self.arity
            )
        )


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
    if root not in spanning_tree.vertices:
        raise ValueError(f"root {root!r} is not a vertex")
    n = len(spanning_tree.vertices)
    if len(spanning_tree.edges) != n - 1:
        raise ValueError(
            f"not a tree: {len(spanning_tree.edges)} edges on {n} vertices"
        )

    rank = spanning_tree.graph()._order_key
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


def _place(
    emb: EmbeddedDaryTree, digits_by_label: dict
) -> tuple[dict, dict]:
    leader_vertex = {}
    leader_route = {}
    for label, digits in digits_by_label.items():
        if digits not in emb.vertex_at:
            raise CapacityExceeded(
                f"no tree node at digit-path {''.join(map(str, digits))!r} "
                f"for leader {label!r}; the embedded tree cannot host this "
                f"placement at arity {emb.arity}"
            )
        v = emb.vertex_at[digits]
        leader_vertex[label] = v
        leader_route[label] = emb.graph_path(v)
    return leader_vertex, leader_route


def plan_multicast(
    g: WeightedGraph,
    root,
    importance: ProbabilityMassFunction,
    d: int = 2,
    relax: bool = False,
) -> MulticastPlan:
    """Plan a multicast: MST, embedded D-ary tree, prefix-free placement.

    Raises :class:`CapacityExceeded` when the optimal codeword set does not
    fit the embedded tree. With ``relax=True`` the codeword lengths are
    uniformly extended one level at a time until the placement fits or
    exceeds the embedded tree's depth; a plan produced this way is marked
    ``relaxed`` and forfeits the expected-depth optimality claim.

    Extending every length by ``b`` yields the optimal codewords behind
    ``b`` zero digits: canonical assignment depends only on the differences
    between consecutive lengths, so its integer values do not change.
    """
    mst = minimum_spanning_tree(g)
    emb = embed_dary_tree(mst, root, d)
    code = huffman_code(importance, d)
    optimal = {label: code.assignments[label].digits for label in importance.labels()}
    longest = max(len(w) for w in optimal.values())
    bumps = range(max(1, emb.max_depth() - longest + 1)) if relax else (0,)

    last_err = None
    for bump in bumps:
        digits_by_label = {label: (0,) * bump + w for label, w in optimal.items()}
        try:
            leader_vertex, leader_route = _place(emb, digits_by_label)
        except CapacityExceeded as err:
            last_err = err
            continue
        assignment = LeaderAssignment(
            DaryTree(d, longest + bump), digits_by_label, importance
        )
        return MulticastPlan(
            root=root,
            arity=d,
            leader_vertex=leader_vertex,
            leader_digits=dict(digits_by_label),
            leader_route=leader_route,
            importance=importance,
            carrier=mst.edges,
            mst_weight=mst.total_weight(),
            expected_depth=assignment.expected_depth(),
            security=verify_secure(assignment),
            relaxed=bump > 0,
        )
    raise last_err


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

    prefix_free = not prefix_violations(list(plan.leader_digits.values()))

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
