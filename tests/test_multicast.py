import dataclasses
import math
import random
import tracemalloc

import pytest

from prefixcast.graphs import WeightedGraph, minimum_spanning_tree
from prefixcast.hierarchy import LeaderAssignment, assign_leaders, verify_secure
from prefixcast.multicast import (
    CapacityExceeded,
    EmbeddedDaryTree,
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
    assert emb.children == {"a": ("b",), "b": ("c",), "c": ("d",), "d": ()}
    assert emb.depth == 3
    assert emb.descend("a", (0, 0, 0)) == ("b", "c", "d")
    assert emb.descend("a", (0, 0, 0, 0)) is None


def test_embed_star_prunes_heaviest_children():
    star = WeightedGraph(
        ("h", "p", "q", "r", "s"),
        (("h", "p", 1.0), ("h", "q", 2.0), ("h", "r", 3.0), ("h", "s", 4.0)),
    )
    emb = embed_dary_tree(star, "h", 2)
    assert emb.children["h"] == ("p", "q")
    assert emb.pruned == ("r", "s")
    assert emb.descend("h", (0,)) == ("p",) and emb.descend("h", (1,)) == ("q",)
    assert emb.descend("h", (2,)) is None  # r's slot is cut off


def test_embed_balanced_binary_is_identity():
    emb = embed_dary_tree(BALANCED, 0, 2)
    assert emb.pruned == ()
    assert len(emb.children) == 7 and emb.depth == 2
    assert emb.descend(0, (0,)) == (1,) and emb.descend(0, (1, 1)) == (2, 6)


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
    ends = {label: route[-1] for label, route in plan.leader_route.items()}
    assert ends == {"A": 1, "B": 5, "C": 6}
    assert plan.assignment.expected_depth() == pytest.approx(1.5)
    assert plan.mst_weight == pytest.approx(6.0)
    assert verify_secure(plan.assignment).secure
    assert not plan.relaxed
    assert plan.leader_route["B"] == (0, 2, 5)


def test_plan_single_leader():
    plan = plan_multicast(TRIANGLE, "A", pmf_of(X=1.0), 2)
    assert plan.leader_route["X"][-1] == "B"  # cheapest neighbor in the MST
    assert len(plan.leader_route["X"]) == 2
    assert verify_secure(plan.assignment).secure


@pytest.mark.parametrize("relax", [False, True])
def test_a_fitting_plan_walks_each_leader_once(monkeypatch, relax):
    # the walk that finds a leader's node is its route; none is walked again
    walked = []
    descend = EmbeddedDaryTree.descend

    def counted(self, vertex, digits):
        walked.append(digits)
        return descend(self, vertex, digits)

    monkeypatch.setattr(EmbeddedDaryTree, "descend", counted)
    rng = random.Random(7)
    fitted = 0
    while fitted < 10:
        verts, edges = random_weighted_connected(rng, rng.randint(20, 40), 30)
        raw = [rng.random() + 0.1 for _ in range(rng.randint(1, 6))]
        pmf = ProbabilityMassFunction.from_pairs((f"L{i}", p / sum(raw)) for i, p in enumerate(raw))
        walked.clear()
        try:
            plan = plan_multicast(WeightedGraph(verts, edges), 0, pmf, 3, relax=relax)
        except CapacityExceeded:
            continue
        if plan.relaxed:
            continue
        fitted += 1
        assert sorted(walked) == sorted(plan.assignment.leaders.values())


def test_plan_capacity_exceeded_on_path_mst():
    # MST of the triangle is the path A-B-C; two depth-1 slots don't exist
    with pytest.raises(CapacityExceeded):
        plan_multicast(TRIANGLE, "A", pmf_of(X=0.5, Y=0.5), 2)


def test_relax_mode_gives_up_when_nothing_fits():
    # a path can host only one leader at any code length
    with pytest.raises(CapacityExceeded):
        plan_multicast(TRIANGLE, "A", pmf_of(X=0.5, Y=0.5), 2, relax=True)


@pytest.mark.parametrize(
    "edges, probs, leaders, routes",
    [
        (
            (("r", "a", 1.0), ("a", "b", 1.0), ("a", "c", 1.0)),
            {"X": 0.5, "Y": 0.5},
            {"X": (0, 0), "Y": (0, 1)},
            {"X": ("r", "a", "b"), "Y": ("r", "a", "c")},
        ),
        # fits at shift 2, while the deepest vertex, q3, is off the zero run
        (
            (("r", "x", 1.0), ("x", "y", 1.0), ("y", "z", 1.0), ("y", "q", 2.0),
             ("q", "q2", 1.0), ("q2", "q3", 1.0)),
            {"u": 0.6, "v": 0.4},
            {"u": (0, 0, 0), "v": (0, 0, 1)},
            {"u": ("r", "x", "y", "z"), "v": ("r", "x", "y", "q")},
        ),
    ],
    ids=["fork-below-one-zero", "deepest-vertex-off-the-zero-run"],
)
def test_relax_mode_recovers_with_longer_codes(edges, probs, leaders, routes):
    g = WeightedGraph(tuple(dict.fromkeys(v for e in edges for v in e[:2])), edges)
    pmf = pmf_of(**probs)
    with pytest.raises(CapacityExceeded):
        plan_multicast(g, "r", pmf, 2)
    plan = plan_multicast(g, "r", pmf, 2, relax=True)
    assert plan.relaxed
    assert plan.assignment.leaders == leaders
    assert plan.assignment.expected_depth() == pytest.approx(
        math.fsum(p * len(leaders[label]) for label, p in probs.items())
    )
    assert plan.leader_route == routes
    assert verify_secure(plan.assignment).secure


def test_relaxed_plan_is_the_optimal_placement_behind_zeros():
    # a chain of b one-child vertices above a complete D-ary tree as deep as
    # the longest codeword: every path fits once it is shifted by b zeros
    rng = random.Random(89)
    for _ in range(40):
        d = rng.choice([2, 3])
        raw = [rng.random() + 0.01 for _ in range(rng.randint(2, 8))]
        total = math.fsum(raw)
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"L{i}", p / total) for i, p in enumerate(raw)]
        )
        optimal = assign_leaders(pmf, d)
        b = rng.randint(1, 3)
        chain = ["r"] + [f"c{i}" for i in range(b)]
        edges = [(u, v, 1.0) for u, v in zip(chain, chain[1:])]
        name = {(): chain[-1]}
        level = [()]
        for _ in range(optimal.depth):
            level = [p + (i,) for p in level for i in range(d)]
            for p in level:
                name[p] = "t" + "".join(map(str, p))
                edges.append((name[p[:-1]], name[p], p[-1] + 1.0))
        g = WeightedGraph(tuple(chain[:-1]) + tuple(name.values()), tuple(edges))

        with pytest.raises(CapacityExceeded):
            plan_multicast(g, "r", pmf, d)
        plan = plan_multicast(g, "r", pmf, d, relax=True)
        zeros = (0,) * b
        assert plan.relaxed
        assert plan.assignment.leaders == {
            label: zeros + p for label, p in optimal.leaders.items()
        }
        assert (plan.assignment.arity, plan.assignment.depth) == (d, optimal.depth + b)
        assert plan.assignment.security.secure
        assert {label: route[-1] for label, route in plan.leader_route.items()} == {
            label: name[p] for label, p in optimal.leaders.items()
        }


def test_embedding_and_relax_refusal_stay_linear_on_a_long_path():
    # the CI's worst case: a 4000-vertex weighted path, 50 uniform leaders at
    # D=2, where every shift up to depth 3993 is tried and fails
    n = 4000
    g = WeightedGraph(
        tuple(f"v{i}" for i in range(n)),
        tuple((f"v{i}", f"v{i + 1}", float(i % 7 + 1)) for i in range(n - 1)),
    )
    mst = minimum_spanning_tree(g)
    tracemalloc.start()
    try:
        emb = embed_dary_tree(mst, "v0", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000  # one digit-path per vertex took 65.7 MB
    assert emb.depth == n - 1
    pmf = ProbabilityMassFunction.from_pairs([(f"L{i}", 0.02) for i in range(50)])
    with pytest.raises(CapacityExceeded) as err:
        plan_multicast(g, "v0", pmf, 2, relax=True)
    assert str(err.value) == (
        f"no tree node at digit-path {'0' * 3993 + '011100'!r} for leader 'L0'; "
        "the embedded tree cannot host this placement at arity 2"
    )


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


def _digit_paths(emb):
    """Every non-empty digit-path of the embedding, by a walk down its child lists."""
    paths, stack = [], [((), emb.root)]
    while stack:
        path, v = stack.pop()
        for i, c in enumerate(emb.children[v]):
            paths.append(path + (i,))
            stack.append((path + (i,), c))
    return paths


def test_plan_depth_is_optimal_for_embedded_tree():
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
        available = _digit_paths(emb)
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
    tampered = dataclasses.replace(plan, leader_route={"X": ("A", "C", "B")})
    audit = plan_cost_audit(tampered, TRIANGLE)
    assert not audit.routes_follow_tree
    assert not audit.ok


def test_audit_detects_prefix_clash():
    plan = plan_multicast(BALANCED, 0, pmf_of(A=0.5, B=0.5), 2)
    clashing = LeaderAssignment(
        2, {"A": (0,), "B": (0, 0)}, plan.assignment.importance
    )
    clashed = dataclasses.replace(plan, assignment=clashing)
    audit = plan_cost_audit(clashed, BALANCED)
    assert audit.prefix_free is verify_secure(clashing).secure is False


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

