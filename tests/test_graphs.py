import enum
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast.graphs import (
    DiGraph,
    Graph,
    InfiniteDivergence,
    VertexColoring,
    WeightedGraph,
    _canonical,
    _is_mst,
    _matrix_tree_count,
    _spanning_search,
    complete_graph,
    conditional_graph_entropy,
    degree_pmf,
    graph_entropy,
    graph_kl_divergence,
    graph_mutual_information,
    in_out_degree_pmfs,
    is_connected,
    is_regular,
    minimum_spanning_tree,
    mst_entropy_extrema,
    path_graph,
    petersen_graph,
    ring_graph,
    spanning_tree_entropy_extrema,
    star_graph,
    tsallis_graph_entropy,
)

from oracles import (
    kruskal_edges,
    random_weighted_connected,
    min_spanning_weight,
    spanning_trees_by_subsets,
    tsallis_degree_entropy,
)


def random_connected_graph(rng, n, extra_edges):
    """Random spanning tree plus a few extra edges; always connected."""
    verts = list(range(n))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((verts[i], verts[j]))))
    candidates = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rng.shuffle(candidates)
    for e in candidates[:extra_edges]:
        edges.add(e)
    return Graph(tuple(range(n)), tuple(sorted(edges)))


# -------------------------------------------------------------- construction


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph((1, 2), ((1, 1),))
    with pytest.raises(ValueError):
        Graph((1, 2), ((1, 3),))
    with pytest.raises(ValueError):
        Graph((1, 2), ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        Graph((1, 1), ())


def test_weighted_graph_rejects_bad_weights():
    with pytest.raises(ValueError):
        WeightedGraph((1, 2), ((1, 2, -1.0),))
    with pytest.raises(ValueError):
        WeightedGraph((1, 2), ((1, 2, float("inf")),))


def test_keyed_lookups_and_value_semantics():
    g = WeightedGraph(("a", "b", 3), (("b", "a", 2.5), (3, "a", 1.0)))
    # each edge keeps its weight, lower-ranked end first
    assert g.edges == (("a", "b", 2.5), (3, "a", 1.0))
    for w in (0.0, -0.0):  # a zero weight is kept, and -0.0 is stored as 0.0
        zero = WeightedGraph(("a", "b"), (("b", "a", w),))
        assert [repr(e) for e in zero.edges] == ["('a', 'b', 0.0)"]
    twin = WeightedGraph(("a", "b", 3), (("a", "b", 2.5), ("a", 3, 1.0)))
    assert g == twin and hash(g) == hash(twin) and repr(g) == repr(twin)
    assert "_weight" not in repr(g)

    bare = g.graph()
    assert bare == twin.graph() and "_edge_set" not in repr(bare)

    colors = VertexColoring.from_dict({"a": "red", 3: "blue"})
    assert colors.as_dict()[3] == "blue"
    with pytest.raises(KeyError):
        colors.as_dict()["b"]
    with pytest.raises(ValueError):
        VertexColoring((("a", "red"), ("a", "blue")))


def test_digraph_allows_antiparallel_arcs():
    g = DiGraph((1, 2), ((1, 2), (2, 1)))
    assert len(g.arcs) == 2
    with pytest.raises(ValueError):
        DiGraph((1, 2), ((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        DiGraph((1, 2), ((1, 1),))


# ----------------------------------------------------------------- entropies


def test_degree_pmf_examples():
    assert degree_pmf(ring_graph(4)).as_dict() == {
        "0": 0.25, "1": 0.25, "2": 0.25, "3": 0.25
    }
    star = degree_pmf(star_graph(4)).as_dict()
    assert star["0"] == pytest.approx(0.5)
    for leaf in "1234":
        assert star[leaf] == pytest.approx(0.125)
    single = Graph(("a", "b"), (("a", "b"),))
    assert degree_pmf(single).as_dict() == {"a": 0.5, "b": 0.5}


def test_degree_pmf_requires_an_edge():
    with pytest.raises(ValueError):
        degree_pmf(Graph((1, 2, 3), ()))


def test_graph_entropy_examples():
    assert graph_entropy(ring_graph(4)) == pytest.approx(2.0, abs=1e-12)
    assert graph_entropy(complete_graph(5)) == pytest.approx(math.log2(5), abs=1e-12)
    assert graph_entropy(star_graph(4)) == pytest.approx(2.0, abs=1e-12)


def test_ring_and_complete_hit_log2_n():
    for n in range(3, 51):
        assert graph_entropy(ring_graph(n)) == pytest.approx(math.log2(n), abs=1e-12)
        assert graph_entropy(complete_graph(n)) == pytest.approx(
            math.log2(n), abs=1e-12
        )


def test_petersen_is_3_regular_with_max_entropy():
    # regular graphs other than rings and complete graphs also reach log2 n
    g = petersen_graph()
    assert is_regular(g) == 3
    assert graph_entropy(g) == pytest.approx(math.log2(10), abs=1e-12)
    assert len(g.edges) == 15  # neither the 10-ring (10) nor K10 (45)


def test_is_regular_examples():
    assert is_regular(complete_graph(4)) == 3
    assert is_regular(star_graph(2)) is None


def test_tsallis_examples():
    assert tsallis_graph_entropy(ring_graph(4), 2.0) == pytest.approx(0.75)
    single = Graph(("a", "b"), (("a", "b"),))
    assert tsallis_graph_entropy(single, 2.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tsallis_graph_entropy(single, 1.0)


def test_tsallis_limit_approaches_shannon_nats():
    rng = random.Random(7)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(3, 8), rng.randint(0, 5))
        nats = graph_entropy(g) * math.log(2.0)
        for q in (1.0 - 1e-4, 1.0 + 1e-4):
            assert tsallis_graph_entropy(g, q) == pytest.approx(nats, abs=5e-4)


def test_tsallis_matches_exact_reference_on_both_sides_of_the_expm1_switch():
    # the expm1 form runs for |q - 1| < 1/2 and the direct form elsewhere
    near_one = [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1.0 - 1e-9, 1.0 + 1e-9]
    switch = [math.nextafter(0.5, 1.0), 0.5, math.nextafter(1.5, 1.0), 1.5]
    far = [-1.0, 0.25, 2.0, 3.0]
    rng = random.Random(11)
    graphs = [path_graph(3), ring_graph(5), star_graph(4)] + [
        random_connected_graph(rng, rng.randint(2, 9), rng.randint(0, 6)) for _ in range(8)
    ]
    for g in graphs:
        for q in near_one + switch + far:
            exact = tsallis_degree_entropy(g.edges, q)
            got = tsallis_graph_entropy(g, q)
            assert got > 0.0
            assert got == pytest.approx(exact, rel=1e-14, abs=0.0), (g.edges, q)


def test_conditional_entropy_examples():
    g = ring_graph(4)
    half = VertexColoring.from_dict({0: "A", 1: "A", 2: "B", 3: "B"})
    assert conditional_graph_entropy(g, half) == pytest.approx(1.0, abs=1e-12)
    same = VertexColoring.from_dict({v: "x" for v in g.vertices})
    assert conditional_graph_entropy(g, same) == pytest.approx(
        graph_entropy(g), abs=1e-12
    )
    each = VertexColoring.from_dict({v: v for v in g.vertices})
    assert conditional_graph_entropy(g, each) == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_rejects_partial_coloring():
    g = ring_graph(4)
    with pytest.raises(ValueError):
        conditional_graph_entropy(g, VertexColoring.from_dict({0: "A"}))


def test_mutual_information_examples():
    g = ring_graph(4)
    half = VertexColoring.from_dict({0: "A", 1: "A", 2: "B", 3: "B"})
    assert graph_mutual_information(g, half) == pytest.approx(1.0, abs=1e-12)
    same = VertexColoring.from_dict({v: "x" for v in g.vertices})
    assert graph_mutual_information(g, same) == pytest.approx(0.0, abs=1e-12)
    each = VertexColoring.from_dict({v: v for v in g.vertices})
    assert graph_mutual_information(g, each) == pytest.approx(
        graph_entropy(g), abs=1e-12
    )


def test_chain_rule_holds_for_random_colorings():
    rng = random.Random(99)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(3, 10), rng.randint(0, 8))
        colors = VertexColoring.from_dict(
            {v: rng.choice("rgb") for v in g.vertices}
        )
        h_v = graph_entropy(g)
        h_given = conditional_graph_entropy(g, colors)
        # color entropy under the degree-mass distribution
        mass: dict = {}
        pmf = degree_pmf(g).as_dict()
        color = colors.as_dict()
        for v in g.vertices:
            mass[color[v]] = mass.get(color[v], 0.0) + pmf[str(v)]
        h_c = -math.fsum(m * math.log2(m) for m in mass.values() if m > 0.0)
        assert h_v == pytest.approx(h_c + h_given, abs=1e-10)
        assert h_given <= h_v + 1e-12
        assert graph_mutual_information(g, colors) >= -1e-12


def test_kl_divergence_examples():
    r4 = ring_graph(4)
    assert graph_kl_divergence(r4, r4) == pytest.approx(0.0, abs=0.0)
    assert graph_kl_divergence(r4, complete_graph(4)) == pytest.approx(0.0, abs=1e-12)

    star = star_graph(3)          # degrees 3,1,1,1 -> {1/2, 1/6, 1/6, 1/6}
    path = path_graph(4)          # degrees 1,2,2,1 -> {1/6, 2/6, 2/6, 1/6}
    corr = {0: 0, 1: 1, 2: 2, 3: 3}
    expected = (
        0.5 * math.log2(0.5 / (1 / 6))
        + (1 / 6) * math.log2((1 / 6) / (2 / 6))
        + (1 / 6) * math.log2((1 / 6) / (2 / 6))
        + (1 / 6) * math.log2((1 / 6) / (1 / 6))
    )
    assert graph_kl_divergence(star, path, corr) == pytest.approx(expected, abs=1e-12)
    assert graph_kl_divergence(star, path, corr) >= 0.0


def test_kl_divergence_error_conditions():
    with pytest.raises(ValueError):
        graph_kl_divergence(ring_graph(4), ring_graph(5))
    g1 = Graph((0, 1, 2), ((0, 1), (1, 2), (0, 2)))
    g2 = Graph((0, 1, 2), ((0, 1),))  # vertex 2 isolated
    with pytest.raises(InfiniteDivergence):
        graph_kl_divergence(g1, g2)
    with pytest.raises(ValueError):
        graph_kl_divergence(g1, ring_graph(3), {0: 0, 1: 1, 2: 1})


def test_zero_mass_terms_are_skipped():
    # c is isolated: its colour class and its KL term carry no mass
    g = Graph(("a", "b", "c"), (("a", "b"),))
    colors = VertexColoring.from_dict({"a": "red", "b": "red", "c": "blue"})
    assert conditional_graph_entropy(g, colors) == 1.0
    path = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert graph_kl_divergence(g, path) == 0.5


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: graph_kl_divergence(ring_graph(3), Graph(("a", "b", "c"), (("a", "b"),))),
            "vertex id sets differ; an explicit correspondence is required",
        ),
        (
            lambda: graph_kl_divergence(ring_graph(3), ring_graph(3), {0: 0, 1: 1}),
            "correspondence does not cover the first graph's vertices",
        ),
        (lambda: ring_graph(2), "vertex count must be >= 3, got 2"),
        (lambda: complete_graph(1), "vertex count must be >= 2, got 1"),
        (lambda: star_graph(0), "leaf count must be >= 1, got 0"),
        (lambda: path_graph(1), "vertex count must be >= 2, got 1"),
    ],
)
def test_out_of_range_arguments_are_named(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_kl_nonnegative_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(3, 9)
        g1 = random_connected_graph(rng, n, rng.randint(0, 6))
        g2 = random_connected_graph(rng, n, rng.randint(0, 6))
        assert graph_kl_divergence(g1, g2) >= -1e-12
        assert graph_kl_divergence(g1, g1) == 0.0


def test_in_out_degree_pmfs():
    ring3 = DiGraph((0, 1, 2), ((0, 1), (1, 2), (2, 0)))
    in_pmf, out_pmf = in_out_degree_pmfs(ring3)
    assert all(abs(p - 1 / 3) < 1e-12 for p in in_pmf.as_dict().values())
    assert all(abs(p - 1 / 3) < 1e-12 for p in out_pmf.as_dict().values())

    single = DiGraph(("a", "b"), (("a", "b"),))
    in_pmf, out_pmf = in_out_degree_pmfs(single)
    assert in_pmf.as_dict() == {"a": 0.0, "b": 1.0}
    assert out_pmf.as_dict() == {"a": 1.0, "b": 0.0}

    hub = DiGraph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3)))
    in_pmf, out_pmf = in_out_degree_pmfs(hub)
    assert out_pmf.as_dict()["0"] == pytest.approx(1.0)
    for leaf in "123":
        assert in_pmf.as_dict()[leaf] == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        in_out_degree_pmfs(DiGraph((0, 1), ()))


def test_entropy_bounds_and_regularity_criterion():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_connected_graph(rng, n, rng.randint(0, n))
        h = graph_entropy(g)
        assert -1e-12 <= h <= math.log2(n) + 1e-12
        if is_regular(g) is not None:
            assert h == pytest.approx(math.log2(n), abs=1e-12)
        else:
            assert h < math.log2(n) - 1e-12


def test_degree_pmf_sums_to_one_large_random():
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(50, 100)
        g = random_connected_graph(rng, n, rng.randint(0, 3 * n))
        total = math.fsum(degree_pmf(g).as_dict().values())
        assert abs(total - 1.0) <= 1e-12


def test_entropy_is_permutation_invariant():
    rng = random.Random(17)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(3, 9), rng.randint(0, 6))
        perm = list(g.vertices)
        rng.shuffle(perm)
        relabel = dict(zip(g.vertices, perm))
        h = Graph(
            tuple(sorted(perm)),
            tuple((relabel[u], relabel[v]) for u, v in g.edges),
        )
        assert graph_entropy(h) == pytest.approx(graph_entropy(g), abs=1e-12)


# ------------------------------------------------------------ spanning trees


def _every_tree(g):
    """Each spanning tree of g as a tuple of its edges, in the order the one
    search yields them under a cut that never fires."""
    edges, ends, stops = _canonical(g.edges, g._order_key)
    found = _spanning_search(len(g.vertices), ends, stops, lambda *branch: False)
    return [tuple(map(edges.__getitem__, t)) for t in found]


def test_search_triangle():
    tri = ring_graph(3)
    trees = _every_tree(tri)
    assert len(trees) == 3 == _matrix_tree_count(tri)
    for t in trees:
        assert type(t) is tuple and len(t) == 2
        assert is_connected(Graph(tri.vertices, t))


def test_search_tree_yields_itself():
    t = path_graph(5)
    assert _every_tree(t) == [t.edges]
    assert _matrix_tree_count(t) == 1


def test_search_k4_matches_cayley_and_oracle():
    k4 = complete_graph(4)
    trees = _every_tree(k4)
    assert len(trees) == 16 == _matrix_tree_count(k4)  # Cayley: 4**2
    oracle = spanning_trees_by_subsets(k4.vertices, k4.edges)
    assert {frozenset(t) for t in trees} == set(oracle)


def test_extrema_guard_and_disconnected():
    with pytest.raises(ValueError, match="^10 vertices exceeds the enumeration guard of 9$"):
        spanning_tree_entropy_extrema(complete_graph(10))
    with pytest.raises(ValueError, match="^graph is disconnected; it has no spanning tree$"):
        spanning_tree_entropy_extrema(Graph((0, 1, 2), ((0, 1),)))
    # vertex 1 is isolated, so the tree count's first pivot is 0
    with pytest.raises(ValueError, match="^graph is disconnected; it has no spanning tree$"):
        spanning_tree_entropy_extrema(Graph((0, 1, 2), ((0, 2),)))


def test_search_count_matches_matrix_tree_random():
    rng = random.Random(23)
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 8))
        trees = _every_tree(g)
        assert len(trees) == _matrix_tree_count(g)
        assert len({frozenset(t) for t in trees}) == len(trees)
        assert {frozenset(t) for t in trees} == set(spanning_trees_by_subsets(g.vertices, g.edges))


def test_spanning_tree_extrema_triangle():
    tri = ring_graph(3)
    lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(tri)
    assert lo == pytest.approx(1.5, abs=1e-12)
    assert hi == pytest.approx(1.5, abs=1e-12)
    assert len(t_lo) == 2 and len(t_hi) == 2
    # the first tree in search order: the first subset of the sorted edges
    first = spanning_trees_by_subsets(tri.vertices, sorted(tri.edges))[0]
    assert frozenset(t_lo) == frozenset(t_hi) == first


def test_spanning_tree_extrema_tree_input():
    t = star_graph(3)
    lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(t)
    assert lo == hi == pytest.approx(graph_entropy(t))
    assert t_lo == t_hi == t.edges


def test_spanning_tree_extrema_k4_against_oracle():
    k4 = complete_graph(4)
    lo, hi, _, _ = spanning_tree_entropy_extrema(k4)
    oracle_entropies = []
    for tree in spanning_trees_by_subsets(k4.vertices, k4.edges):
        oracle_entropies.append(graph_entropy(Graph(k4.vertices, tuple(tree))))
    assert lo == pytest.approx(min(oracle_entropies), abs=1e-12)
    assert hi == pytest.approx(max(oracle_entropies), abs=1e-12)


# ------------------------------------------------------------------- MSTs


def test_mst_triangle():
    g = WeightedGraph(
        ("A", "B", "C"), (("A", "B", 1.0), ("B", "C", 2.0), ("C", "A", 3.0))
    )
    mst = minimum_spanning_tree(g)
    assert {(u, v) for u, v, _ in mst.edges} == {("A", "B"), ("B", "C")}
    assert mst.total_weight() == pytest.approx(3.0)


def test_mst_all_equal_weights_is_deterministic():
    k4 = complete_graph(4)
    g = WeightedGraph(k4.vertices, tuple((u, v, 2.5) for u, v in k4.edges))
    mst = minimum_spanning_tree(g)
    assert mst.total_weight() == pytest.approx(7.5)
    again = minimum_spanning_tree(g)
    assert mst.edges == again.edges


def test_tied_mixed_ids_pick_mst_edges_in_canonical_order():
    # ints by value, then strings by text: 2 < 10 < "10" < "2" < "a"
    ids = ("a", "10", 10, "2", 2)
    complete = WeightedGraph(
        ids, tuple((v, u, 1.0) for i, u in enumerate(ids) for v in ids[i + 1:])
    )
    assert minimum_spanning_tree(complete).edges == (
        (2, 10, 1.0), (2, "10", 1.0), (2, "2", 1.0), (2, "a", 1.0),
    )
    ring = WeightedGraph(
        ids[1:], (("10", 10, 1.0), (10, 2, 1.0), (2, "2", 1.0), ("2", "10", 1.0))
    )
    assert minimum_spanning_tree(ring).edges == (
        (2, 10, 1.0), (2, "2", 1.0), (10, "10", 1.0),
    )


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 5


@pytest.mark.parametrize(("vertices", "ranks"), [
    (("b", "a", "c"), {"a": 0, "b": 1, "c": 2}),
    ((3, 1, 2), {1: 0, 2: 1, 3: 2}),
    (("a", "10", 10, "2", 2), {2: 0, 10: 1, "10": 2, "2": 3, "a": 4}),
    # a bool is not an int here, and ids of equal text keep their input order
    ((True, "True", 2), {2: 0, True: 1, "True": 2}),
    (("True", True, 2), {2: 0, "True": 1, True: 2}),
    # an IntEnum member is an int and ranks by its value, not its name
    (("a", _Level.HIGH, 3, _Level.LOW), {_Level.LOW: 0, 3: 1, _Level.HIGH: 2, "a": 3}),
    # a numpy.int64 is not an int here: it ranks by its text, after every int
    ((np.int64(10), "9", 200), {200: 0, np.int64(10): 1, "9": 2}),
    # a float ranks by its text too
    ((2.5, 10, "2.4"), {10: 0, "2.4": 1, 2.5: 2}),
    ((3, -1, "-5", -20), {-20: 0, -1: 1, 3: 2, "-5": 3}),
    # a str id whose text equals an int id's ranks with the strs
    (("7", 7, "10"), {7: 0, "10": 1, "7": 2}),
])
def test_order_key_is_the_rank_in_vertex_order(vertices, ranks):
    assert Graph(vertices, ())._order_key == ranks


@st.composite
def mixed_weighted_graphs(draw):
    """A connected graph of 1-12 int and str ids, weights from {1, 2, 3}."""
    ids = draw(st.lists(
        st.one_of(st.integers(-3, 12), st.text("ab12", min_size=1, max_size=2)),
        min_size=1, max_size=12, unique=True,
    ))
    n = len(ids)
    pairs = {frozenset((i, draw(st.integers(0, i - 1)))) for i in range(1, n)}
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs |= {frozenset(p) for p in draw(st.lists(extra, max_size=20)) if p[0] != p[1]}
    edges = []
    for pair in sorted(pairs, key=sorted):
        i, j = draw(st.permutations(sorted(pair)))
        edges.append((ids[i], ids[j], draw(st.sampled_from((1, 2, 3)))))
    return tuple(draw(st.permutations(ids))), tuple(draw(st.permutations(edges)))


@settings(max_examples=150, deadline=None)
@given(mixed_weighted_graphs())
def test_kruskal_ties_match_an_independent_kruskal(case):
    vertices, edges = case
    mst = minimum_spanning_tree(WeightedGraph(vertices, edges))
    assert mst.edges == kruskal_edges(vertices, edges)
    # the tree skips the second check; checking it changes no attribute of
    # either object, kept keys and weights included, so one that only the
    # checked build sets fails here, before and after each builds its Graph
    checked = WeightedGraph(mst.vertices, mst.edges)
    assert vars(checked) == vars(mst)
    assert vars(checked.graph()) == vars(mst.graph())
    assert vars(checked) == vars(mst)


def test_mst_disconnected_raises():
    g = WeightedGraph((0, 1, 2, 3), ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError):
        minimum_spanning_tree(g)


def test_mst_weight_matches_bruteforce_random():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 8)
        base = random_connected_graph(rng, n, rng.randint(0, 6))
        g = WeightedGraph(
            base.vertices,
            tuple((u, v, float(rng.randint(1, 9))) for u, v in base.edges),
        )
        mst = minimum_spanning_tree(g)
        assert mst.total_weight() == pytest.approx(
            min_spanning_weight(g.vertices, g.edges)
        )
        assert is_connected(mst.graph())
        assert len(mst.edges) == n - 1


def test_mst_entropy_extrema():
    tri = WeightedGraph(
        ("A", "B", "C"), (("A", "B", 1.0), ("B", "C", 2.0), ("C", "A", 3.0))
    )
    lo, hi = mst_entropy_extrema(tri)
    assert lo == hi == pytest.approx(1.5, abs=1e-12)

    k4 = complete_graph(4)
    equal = WeightedGraph(k4.vertices, tuple((u, v, 1.0) for u, v in k4.edges))
    lo, hi = mst_entropy_extrema(equal)
    full_lo, full_hi, _, _ = spanning_tree_entropy_extrema(k4)
    assert lo == pytest.approx(full_lo, abs=1e-12)
    assert hi == pytest.approx(full_hi, abs=1e-12)
    assert lo < hi  # stars vs paths among K4 trees


def test_mst_entropy_extrema_ties_are_exact():
    # the star weighs 3; the two paths through 1-2 weigh 3 + 1e-10 and are not MSTs
    g = WeightedGraph(
        (0, 1, 2, 3),
        ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 1.0 + 1e-10)),
    )
    lo, hi = mst_entropy_extrema(g)
    assert lo == hi == graph_entropy(star_graph(3))



def _carriers(rng, vertices, edges):
    """Candidate carriers for the MST certificate: every spanning tree; n - 1
    edges with a cycle, an edge g lacks, a wrong weight, a repeated edge, or
    edges given in the other orientation; and a tree with one more edge."""
    trees = spanning_trees_by_subsets(vertices, edges)
    weight = {(u, v): w for u, v, w in edges}
    out = [[(u, v, weight[u, v]) for u, v in sorted(t)] for t in trees]
    k = len(vertices) - 1
    if len(edges) > k:
        out += [rng.sample(edges, k) for _ in range(3)]
    missing = [(u, v) for u in vertices for v in vertices if u < v and (u, v) not in weight]
    for base in rng.sample(out, min(6, len(out))):
        if not base:
            continue
        i = rng.randrange(len(base))
        u, v, w = base[i]
        if missing:
            out.append(base[:i] + [(*rng.choice(missing), w)] + base[i + 1:])
        out.append(base[:i] + [(u, v, w + 1.0)] + base[i + 1:])
        out.append(base[:i] + [(v, u, w)] + base[i + 1:])
        out.append([(v, u, w) for u, v, w in base])
        out.append(base + [base[i]])
        out.append(base + [rng.choice(edges)])
        if len(base) > 1:
            out.append(base[:i] + [base[i - 1]] + base[i + 1:])
            out.append(base[:i] + [(base[i - 1][1], base[i - 1][0], base[i - 1][2])] + base[i + 1:])
    return out


def test_mst_certificate_matches_oracle_on_random_carriers():
    verdicts = {True: 0, False: 0}
    for seed in range(40):
        rng = random.Random(6400 + seed)
        n = rng.randint(1, 8)
        extra = rng.randint(0, min(5, (n - 1) * (n - 2) // 2))
        vertices, edges = random_weighted_connected(rng, n, extra, (1, 4))
        g = WeightedGraph(vertices, edges)
        weight = {frozenset((u, v)): w for u, v, w in edges}
        trees = {frozenset(map(frozenset, t)) for t in spanning_trees_by_subsets(vertices, edges)}
        least = min_spanning_weight(vertices, edges)
        for carrier in _carriers(rng, vertices, list(edges)):
            # a spanning tree of g, each edge with g's weight, of least total weight
            pairs = [frozenset((u, v)) for u, v, _ in carrier]
            want = (
                len(set(pairs)) == len(carrier)
                and all(weight.get(p) == w for p, (_, _, w) in zip(pairs, carrier))
                and frozenset(pairs) in trees
                and sum(w for _, _, w in carrier) == least
            )
            assert _is_mst(g, carrier) == want, (edges, carrier)
            verdicts[want] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50
