import dataclasses
import math
import random

import pytest

from prefixcast.graphs import WeightedGraph
from prefixcast.hierarchy import DaryTree, LeaderAssignment, verify_secure
from prefixcast.multicast import (
    CapacityExceeded,
    embed_dary_tree,
    plan_cost_audit,
    plan_multicast,
)
from prefixcast.source_coding import ProbabilityMassFunction

from oracles import (
    best_realizable_depth,
    min_spanning_weight,
    prim_min_spanning_weight,
    random_weighted_connected,
)


def pmf_of(**probs):
    return ProbabilityMassFunction.from_pairs(probs.items())


def wpath(*verts, w=1.0):
    return WeightedGraph(
        tuple(verts), tuple((a, b, w) for a, b in zip(verts, verts[1:]))
    )


BALANCED = WeightedGraph(
    (0, 1, 2, 3, 4, 5, 6),
    (
        (0, 1, 1.0), (0, 2, 1.0),
        (1, 3, 1.0), (1, 4, 1.0),
        (2, 5, 1.0), (2, 6, 1.0),
    ),
)

TRIANGLE = WeightedGraph(
    ("A", "B", "C"), (("A", "B", 1.0), ("B", "C", 2.0), ("C", "A", 3.0))
)


# ------------------------------------------------------------------ embedding


def test_embed_path_from_end_keeps_everything():
    emb = embed_dary_tree(wpath("a", "b", "c", "d"), "a", 2)
    assert emb.pruned == ()
    assert emb.vertex_at == {(): "a", (0,): "b", (0, 0): "c", (0, 0, 0): "d"}
    assert emb.graph_path("d") == ("a", "b", "c", "d")


def test_embed_star_prunes_heaviest_children():
    star = WeightedGraph(
        ("h", "p", "q", "r", "s"),
        (("h", "p", 1.0), ("h", "q", 2.0), ("h", "r", 3.0), ("h", "s", 4.0)),
    )
    emb = embed_dary_tree(star, "h", 2)
    assert emb.children["h"] == ("p", "q")
    assert emb.pruned == ("r", "s")
    assert emb.vertex_at[(0,)] == "p" and emb.vertex_at[(1,)] == "q"


def test_path_of_inverts_vertex_at():
    emb = embed_dary_tree(BALANCED, 0, 2)
    for path, v in emb.vertex_at.items():
        assert emb.path_of(v) == path
    star = WeightedGraph(("h", "p", "q", "r"), (("h", "p", 1.0), ("h", "q", 2.0), ("h", "r", 3.0)))
    with pytest.raises(KeyError):
        embed_dary_tree(star, "h", 2).path_of("r")  # pruned: no address


def test_embed_balanced_binary_is_identity():
    emb = embed_dary_tree(BALANCED, 0, 2)
    assert emb.pruned == ()
    assert len(emb.vertex_at) == 7
    assert emb.vertex_at[(0,)] == 1 and emb.vertex_at[(1, 1)] == 6


def test_embed_rejects_non_trees_and_bad_root():
    with pytest.raises(ValueError):
        embed_dary_tree(TRIANGLE, "A", 2)  # has a cycle
    with pytest.raises(ValueError):
        embed_dary_tree(wpath("a", "b"), "z", 2)
    with pytest.raises(ValueError, match=r"^arity must be >= 2, got 1$"):
        embed_dary_tree(wpath("a", "b"), "a", 1)


@pytest.mark.parametrize(
    "kids, d, kept, pruned",
    [
        (("y", "x", "z"), 2, ("x", "y"), ("z",)),
        # ints by value, then strings by text: 2 < 10 < "10" < "2" < "a"
        ((10, 2, "10", "2", "a"), 3, (2, 10, "10"), ("2", "a")),
        ((10, "a", 3, 2), 2, (2, 3), (10, "a")),
    ],
)
def test_embed_tie_break_by_vertex_id(kids, d, kept, pruned):
    star = WeightedGraph(("h",) + kids, tuple(("h", k, 1.0) for k in kids))
    emb = embed_dary_tree(star, "h", d)
    assert emb.children["h"] == kept
    assert emb.pruned == pruned


def test_embedding_monotone_in_arity():
    rng = random.Random(61)
    for _ in range(20):
        verts, edges = random_weighted_connected(rng, rng.randint(3, 9), 0)
        tree = WeightedGraph(verts, edges)
        sizes = [
            len(embed_dary_tree(tree, 0, d).pruned) for d in (2, 3, 4, 5)
        ]
        assert sizes == sorted(sizes, reverse=True)


# ------------------------------------------------------------------- planning


def test_plan_on_balanced_binary_tree():
    plan = plan_multicast(BALANCED, 0, pmf_of(A=0.5, B=0.25, C=0.25), 2)
    assert plan.assignment.leaders == {"A": (0,), "B": (1, 0), "C": (1, 1)}
    assert plan.leader_vertex == {"A": 1, "B": 5, "C": 6}
    assert plan.assignment.expected_depth() == pytest.approx(1.5)
    assert plan.mst_weight == pytest.approx(6.0)
    assert verify_secure(plan.assignment).secure
    assert not plan.relaxed
    assert plan.leader_route["B"] == (0, 2, 5)


def test_plan_single_leader():
    plan = plan_multicast(TRIANGLE, "A", pmf_of(X=1.0), 2)
    assert plan.leader_vertex["X"] == "B"  # cheapest neighbor in the MST
    assert len(plan.leader_route["X"]) == 2
    assert verify_secure(plan.assignment).secure


def test_plan_capacity_exceeded_on_path_mst():
    # MST of the triangle is the path A-B-C; two depth-1 slots don't exist
    with pytest.raises(CapacityExceeded):
        plan_multicast(TRIANGLE, "A", pmf_of(X=0.5, Y=0.5), 2)


def test_relax_mode_gives_up_when_nothing_fits():
    # a path can host only one leader at any code length
    with pytest.raises(CapacityExceeded):
        plan_multicast(TRIANGLE, "A", pmf_of(X=0.5, Y=0.5), 2, relax=True)


def test_relax_mode_recovers_with_longer_codes():
    g = WeightedGraph(
        ("r", "a", "b", "c"),
        (("r", "a", 1.0), ("a", "b", 1.0), ("a", "c", 1.0)),
    )
    with pytest.raises(CapacityExceeded):
        plan_multicast(g, "r", pmf_of(X=0.5, Y=0.5), 2)
    plan = plan_multicast(g, "r", pmf_of(X=0.5, Y=0.5), 2, relax=True)
    assert plan.relaxed
    assert plan.assignment.leaders == {"X": (0, 0), "Y": (0, 1)}
    assert plan.assignment.expected_depth() == pytest.approx(2.0)
    assert sorted(plan.leader_vertex.values()) == ["b", "c"]
    assert verify_secure(plan.assignment).secure


def test_plan_preserves_importance_ordering():
    rng = random.Random(67)
    done = 0
    while done < 25:
        verts, edges = random_weighted_connected(rng, rng.randint(4, 8), rng.randint(0, 4))
        g = WeightedGraph(verts, edges)
        k = rng.randint(1, 4)
        raw = [rng.random() + 0.01 for _ in range(k)]
        total = sum(raw)
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"L{i}", p / total) for i, p in enumerate(raw)]
        )
        try:
            plan = plan_multicast(g, 0, pmf, 2)
        except CapacityExceeded:
            continue
        done += 1
        assert verify_secure(plan.assignment).secure
        probs = pmf.as_dict()
        for x in probs:
            for y in probs:
                if probs[x] > probs[y]:
                    assert len(plan.assignment.leaders[x]) <= len(plan.assignment.leaders[y])


def test_plan_depth_is_optimal_for_embedded_tree():
    from prefixcast.graphs import minimum_spanning_tree

    rng = random.Random(71)
    done = 0
    while done < 30:
        verts, edges = random_weighted_connected(rng, rng.randint(4, 8), rng.randint(0, 5))
        g = WeightedGraph(verts, edges)
        k = rng.randint(2, 5)
        raw = [rng.random() + 0.01 for _ in range(k)]
        total = sum(raw)
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"L{i}", p / total) for i, p in enumerate(raw)]
        )
        try:
            plan = plan_multicast(g, 0, pmf, 2)
        except CapacityExceeded:
            continue
        done += 1
        emb = embed_dary_tree(minimum_spanning_tree(g), 0, 2)
        available = [p for p in emb.vertex_at if p != ()]
        oracle = best_realizable_depth(available, list(pmf.as_dict().values()))
        assert oracle is not None
        assert plan.assignment.expected_depth() == pytest.approx(oracle, abs=1e-9)


# --------------------------------------------------------------------- audit


def test_audit_passes_for_valid_plan():
    plan = plan_multicast(TRIANGLE, "A", pmf_of(X=1.0), 2)
    audit = plan_cost_audit(plan, TRIANGLE)
    assert audit.mst_weight_minimal is True
    assert audit.prefix_free and audit.routes_follow_tree
    assert audit.ok


def test_audit_detects_tampered_route():
    plan = plan_multicast(TRIANGLE, "A", pmf_of(X=1.0), 2)
    tampered = dataclasses.replace(
        plan, leader_route={"X": ("A", "C", "B")}, leader_vertex={"X": "B"}
    )
    audit = plan_cost_audit(tampered, TRIANGLE)
    assert not audit.routes_follow_tree
    assert not audit.ok


def test_audit_detects_route_ending_at_another_vertex():
    plan = plan_multicast(TRIANGLE, "A", pmf_of(X=1.0), 2)
    assert plan.leader_route == {"X": ("A", "B")}
    moved = dataclasses.replace(plan, leader_vertex={"X": "C"})
    audit = plan_cost_audit(moved, TRIANGLE)
    assert audit.routes_follow_tree is False
    assert audit.mst_weight_minimal and audit.prefix_free


def test_audit_detects_prefix_clash():
    plan = plan_multicast(BALANCED, 0, pmf_of(A=0.5, B=0.5), 2)
    clashing = LeaderAssignment(
        DaryTree(2, 2), {"A": (0,), "B": (0, 0)}, plan.assignment.importance
    )
    clashed = dataclasses.replace(plan, assignment=clashing)
    audit = plan_cost_audit(clashed, BALANCED)
    assert not audit.prefix_free


def test_audit_weight_check_on_random_graphs():
    rng = random.Random(73)
    done = 0
    while done < 15:
        verts, edges = random_weighted_connected(rng, 8, rng.randint(0, 6))
        g = WeightedGraph(verts, edges)
        try:
            plan = plan_multicast(g, 0, pmf_of(X=0.6, Y=0.4), 2)
        except CapacityExceeded:
            continue
        done += 1
        audit = plan_cost_audit(plan, g)
        assert audit.mst_weight_minimal is True
        assert audit.ok
        assert plan.mst_weight == pytest.approx(
            min_spanning_weight(g.vertices, g.edges)
        )


def test_audit_decides_weight_check_on_large_graphs():
    rng = random.Random(79)
    verts, edges = random_weighted_connected(rng, 12, 5)
    g = WeightedGraph(verts, edges)
    plan = plan_multicast(g, 0, pmf_of(X=1.0), 2)
    audit = plan_cost_audit(plan, g)
    assert audit.mst_weight_minimal is True
    assert audit.ok


# Four vertices; the carrier is 0-1, 0-2, 2-3 (weight 3). The triangle 0-1-2
# has three weight-1 edges, so 1-2 can replace 0-2 in another MST.
TIED = WeightedGraph(
    (0, 1, 2, 3),
    ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0), (1, 3, 2.0)),
)


def _with_carrier(plan, carrier):
    """The plan with another carrier whose weights it reports consistently."""
    return dataclasses.replace(
        plan, carrier=tuple(carrier), mst_weight=math.fsum(w for _, _, w in carrier)
    )


def test_plan_carries_its_minimum_spanning_tree():
    plan = plan_multicast(TIED, 0, pmf_of(X=1.0), 2)
    assert plan.carrier == ((0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0))
    assert plan.mst_weight == 3.0


@pytest.mark.parametrize(
    "carrier",
    [
        # 2-3 swapped for the heavier 1-3, which reconnects vertex 3
        ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 2.0)),
        # 0-2 swapped for 0-3, which is not an edge of the graph
        ((0, 1, 1.0), (0, 3, 1.0), (2, 3, 1.0)),
        # 1-3 claimed lighter than the graph says
        ((0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0)),
        # n-1 edges of the right total weight, but a cycle misses vertex 3
        ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)),
        # the carrier with 0-1 repeated
        ((0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0), (1, 0, 1.0)),
        # too few edges
        ((0, 1, 1.0), (0, 2, 1.0)),
        # 2-3 named by the string "3", which is not a vertex of the graph
        ((0, 1, 1.0), (0, 2, 1.0), (2, "3", 1.0)),
    ],
)
def test_audit_rejects_a_carrier_that_is_not_a_minimum_spanning_tree(carrier):
    plan = plan_multicast(TIED, 0, pmf_of(X=1.0), 2)
    # a false verdict, not an exception
    audit = plan_cost_audit(_with_carrier(plan, carrier), TIED)
    assert audit.mst_weight_minimal is False
    assert audit.ok is False


def test_audit_rejects_carriers_of_a_disconnected_graph():
    plan = plan_multicast(TIED, 0, pmf_of(X=1.0), 2)
    halves = WeightedGraph((0, 1, 2, 3), ((0, 1, 1.0), (2, 3, 1.0)))
    forest = _with_carrier(plan, halves.edges)
    bridged = _with_carrier(plan, halves.edges + ((1, 2, 1.0),))
    assert plan_cost_audit(forest, halves).mst_weight_minimal is False
    assert plan_cost_audit(bridged, halves).mst_weight_minimal is False


def test_audit_rejects_a_misreported_weight():
    plan = plan_multicast(TIED, 0, pmf_of(X=1.0), 2)
    audit = plan_cost_audit(dataclasses.replace(plan, mst_weight=plan.mst_weight + 1), TIED)
    assert audit.mst_weight_minimal is False
    assert audit.ok is False


def test_audit_accepts_an_equal_weight_swap():
    plan = plan_multicast(TIED, 0, pmf_of(X=1.0), 2)
    other = _with_carrier(plan, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    audit = plan_cost_audit(other, TIED)
    assert audit.mst_weight_minimal is True
    assert audit.ok is True


def _swap_one_edge(rng, g, carrier):
    """Replace a random carrier edge on the cycle a random non-carrier edge closes."""
    tree = {frozenset((u, v)) for u, v, _ in carrier}
    outside = [e for e in g.edges if frozenset(e[:2]) not in tree]
    a, b, w = rng.choice(outside)
    adj = {v: [] for v in g.vertices}
    for e in carrier:
        adj[e[0]].append(e)
        adj[e[1]].append(e)
    # walk the carrier from a, remembering the edge each vertex was reached by
    via = {a: None}
    stack = [a]
    while stack:
        x = stack.pop()
        for e in adj[x]:
            y = e[1] if e[0] == x else e[0]
            if y not in via:
                via[y] = e
                stack.append(y)
    cycle = []
    x = b
    while via[x] is not None:
        cycle.append(via[x])
        x = via[x][0] if via[x][1] == x else via[x][1]
    dropped = rng.choice(cycle)
    return [e for e in carrier if e != dropped] + [(a, b, w)]


def test_audit_agrees_with_prim_on_random_graphs():
    rng = random.Random(83)
    for _ in range(40):
        n = rng.randint(9, 60)
        verts, edges = random_weighted_connected(rng, n, rng.randint(1, 2 * n), (1, 3))
        g = WeightedGraph(verts, edges)
        plan = plan_multicast(g, 0, pmf_of(X=1.0), 2)
        best = prim_min_spanning_weight(verts, edges)
        assert plan.mst_weight == best
        assert plan_cost_audit(plan, g).mst_weight_minimal is True
        swapped = _with_carrier(plan, _swap_one_edge(rng, g, plan.carrier))
        verdict = plan_cost_audit(swapped, g).mst_weight_minimal
        assert verdict is (swapped.mst_weight == best)

