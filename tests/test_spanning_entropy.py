"""Entropy extrema over spanning trees against subset enumeration.

Both scopes work on the searches' edge tuples, not on one ``Graph`` and one
degree pmf per tree, and compare trees by the product of d**d over their
degrees. These tests hold them to the exhaustive oracle: the values equal
``graph_entropy``'s exactly, the named trees are the first extremal ones in
the search's order, also where many trees tie, and the MST scope keeps
exactly the trees of least exact weight, summed as Fractions by the oracle.
Weights in tenths make left-to-right sums of one tree's weights depend on
their order, weights near 2**53 make a tree that is not an MST round to the
MST's weight, and weights near the largest float make a minimum's sum
overflow; the MST scope drops the first and answers the second, since it
sums none. One search serves both scopes: its order is the subset oracle's
order over the canonically sorted edges under a cut that never fires, and
over the edges in Kruskal's order, bounded by each weight class's stop, it
yields the exact MSTs alone, in that order. The all-trees scope cuts it by
a degree bound and the MST scope not at all, and both share one fold,
which evaluates the entropy of its two winners alone and checks them, the
MST scope's also by the plan audit's MST certificate. With every weight
equal the two scopes agree. The product orders tree degree vectors as the
entropy does, ties included, on every tree the guard admits.
"""

import collections
import functools
import gc
import itertools
import math
import operator
import random

import pytest

import prefixcast.graphs as graphs
import prefixcast.source_coding as source_coding
from prefixcast.graphs import (
    Graph,
    WeightedGraph,
    complete_graph,
    graph_entropy,
    mst_entropy_extrema,
    path_graph,
    ring_graph,
    spanning_tree_entropy_extrema,
    star_graph,
)

from oracles import (
    minimum_spanning_trees_exact,
    random_weighted_connected,
    shortest_hops,
    spanning_trees_by_subsets,
)

TENTHS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1.0, 1.1)


def _order(v):
    # ints before strings, each in its own order
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def _trees_in_search_order(g):
    """The subset oracle's spanning trees of g over its edges sorted by their
    endpoints' order, which is the order of the one search."""
    return spanning_trees_by_subsets(g.vertices, sorted(g.edges, key=lambda e: (_order(e[0]), _order(e[1]))))


def _never(*branch):
    """A cut that keeps every branch."""
    return False


def _graph_with_bridges(rng):
    """One or two random blocks joined by a bridge, then pendant vertices,
    at most 7 vertices, with some ids renamed to strings."""
    edges, n = [], 0
    sizes = [rng.randint(1, 4)]
    if rng.random() < 0.6:
        sizes.append(rng.randint(1, 3))
    for k in sizes:
        _, block = random_weighted_connected(rng, k, rng.randint(0, (k - 1) * (k - 2) // 2))
        edges += [(u + n, v + n) for u, v, _ in block]
        if n:
            edges.append((rng.randrange(n), n + rng.randrange(k)))
        n += k
    while n < 7 and rng.random() < 0.5:
        edges.append((rng.randrange(n), n))
        n += 1
    names = {v: rng.choice((v, f"v{v}", str(9 - v))) for v in range(n)}
    vertices = [names[v] for v in range(n)]
    rng.shuffle(vertices)
    return Graph(tuple(vertices), tuple((names[u], names[v]) for u, v in edges))


def test_search_order_is_subset_order_over_sorted_edges():
    mixed = 0
    for seed in range(60):
        g = _graph_with_bridges(random.Random(9100 + seed))
        mixed += len({type(v) for v in g.vertices}) == 2
        edges, ends, stops = graphs._canonical(g.edges, g._order_key)
        # pairs are one weight class
        assert stops == [len(ends)] * len(ends)
        found = graphs._spanning_search(len(g.vertices), ends, stops, _never)
        assert [frozenset(map(edges.__getitem__, t)) for t in found] == _trees_in_search_order(g)
    assert mixed > 0


def _random_graph(rng):
    n = rng.randint(2, 7)
    extra = rng.randint(0, min(6, (n - 1) * (n - 2) // 2))
    vertices, edges = random_weighted_connected(rng, n, extra, (1, 3))
    if rng.random() < 0.5:
        edges = tuple((u, v, rng.choice(TENTHS)) for u, v, _ in edges)
    return WeightedGraph(vertices, edges)


def _left_sum(xs):
    """Float sum in list order; sum() is compensated from CPython 3.12 on."""
    return functools.reduce(operator.add, xs, 0.0)


def test_extrema_match_subset_oracle():
    order_sensitive = 0
    for seed in range(60):
        rng = random.Random(7000 + seed)
        g = _random_graph(rng)
        weight = {(u, v): w for u, v, w in g.edges}
        trees = _trees_in_search_order(g)
        entropies = [graph_entropy(Graph(g.vertices, tuple(tree))) for tree in trees]
        msts = [
            (sorted(weight[p] for p in tree), graph_entropy(Graph(g.vertices, tuple(tree))))
            for tree in minimum_spanning_trees_exact(g.vertices, g.edges)
        ]
        sums = {_left_sum(ws) for ws, _ in msts} | {_left_sum(ws[::-1]) for ws, _ in msts}
        order_sensitive += len(sums) > 1

        lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(g.graph())
        assert (lo, hi) == (min(entropies), max(entropies))
        assert mst_entropy_extrema(g) == (min(h for _, h in msts), max(h for _, h in msts))

        assert frozenset(t_lo) == trees[entropies.index(lo)]
        assert frozenset(t_hi) == trees[entropies.index(hi)]
    # some cases have minimum trees whose left-to-right sums depend on the order
    assert order_sensitive > 0


def test_mst_scope_drops_trees_whose_fsum_only_rounds_to_the_minimum():
    # the star at b is the only exact MST (entropy 2.0); the path a-b-c-d-e
    # weighs 2**53 + 1, which rounds to 2**53 like the star, but is heavier
    g = WeightedGraph(tuple("abcde"), (
        ("a", "b", 2.0**53), ("b", "c", 0.0), ("b", "d", 0.0), ("b", "e", 0.0),
        ("c", "d", 0.5), ("d", "e", 0.5),
    ))
    assert mst_entropy_extrema(g) == (2.0, 2.0)


# each forces a weight pattern: every tree minimal, ties at two levels, sums
# that round at 2**53, and tree sums that overflow
WEIGHT_PATTERNS = (
    lambda rng: 1.0,
    lambda rng: rng.choice((1.0, 2.0)),
    lambda rng: 2.0**53 + rng.choice((0.0, 1.0, 2.0)),
    lambda rng: rng.choice((0.0, 1.0, 1e308, 1.7e308)),
)


def test_mst_scope_matches_the_exact_subset_oracle():
    rounded = overflowing = answered = 0
    for seed in range(40):
        rng = random.Random(8300 + seed)
        for draw in WEIGHT_PATTERNS:
            n = rng.randint(2, 7)
            extra = rng.randint(0, min(6, (n - 1) * (n - 2) // 2))
            vertices, edges = random_weighted_connected(rng, n, extra)
            edges = tuple((u, v, draw(rng)) for u, v, _ in edges)
            g = WeightedGraph(vertices, edges)
            weight = {(u, v): w for u, v, w in edges}
            msts = minimum_spanning_trees_exact(vertices, edges)
            fsums = []
            for tree in spanning_trees_by_subsets(vertices, edges):
                try:
                    fsums.append(math.fsum(weight[p] for p in tree))
                except OverflowError:
                    fsums.append(math.inf)
            least = min(fsums)
            # trees the fsum rule counted, though heavier than every MST
            rounded += least < math.inf and fsums.count(least) > len(msts)
            overflowing += least < math.inf and math.inf in fsums
            # minima the fsum rule refused
            answered += least == math.inf
            hs = [graph_entropy(Graph(vertices, tuple(t))) for t in msts]
            assert mst_entropy_extrema(g) == (min(hs), max(hs))
            # under a cut that never fires, the search over the edges in
            # Kruskal's order, bounded by the class stops, yields exactly the
            # MSTs, in the subset oracle's order over those edges
            canon, ends, stops = graphs._canonical(edges, g.graph()._order_key)
            assert [w for _, _, w in canon] == sorted(weight.values())
            found = graphs._spanning_search(n, ends, stops, _never)
            in_order = [t for t in spanning_trees_by_subsets(vertices, canon) if t in msts]
            assert len(in_order) == len(msts)
            assert [frozenset(canon[j][:2] for j in t) for t in found] == in_order
    # some trees only round to the minimum, some trees that are not minimal
    # overflow, and some minima overflow yet are answered
    assert rounded > 0 and overflowing > 0 and answered > 0


def test_mst_scope_on_k6_and_its_guard():
    k6 = complete_graph(6)
    weighted = WeightedGraph(k6.vertices, tuple((u, v, float((u + v) % 3 + 1)) for u, v in k6.edges))
    trees = _trees_in_search_order(k6)
    weight = {(u, v): w for u, v, w in weighted.edges}
    sums = [math.fsum(map(weight.__getitem__, t)) for t in trees]
    least = min(sums)
    hs = [graph_entropy(Graph(k6.vertices, tuple(t))) for t, s in zip(trees, sums) if s == least]
    assert mst_entropy_extrema(weighted) == (min(hs), max(hs))
    # the guards still refuse first, with their own messages
    k9 = complete_graph(9)
    with pytest.raises(ValueError, match="over the enumeration budget"):
        mst_entropy_extrema(WeightedGraph(k9.vertices, tuple((u, v, 1.0) for u, v in k9.edges)))


def test_extrema_build_no_graph_per_tree(monkeypatch):
    k5 = complete_graph(5)
    weighted = WeightedGraph(k5.vertices, tuple((u, v, float(u + v) % 3) for u, v in k5.edges))
    built = {"Graph": 0, "pmf": 0}
    graph_init = graphs.Graph.__post_init__
    pmf_init = source_coding.ProbabilityMassFunction.__post_init__

    def count_graph(self):
        built["Graph"] += 1
        graph_init(self)

    def count_pmf(self):
        built["pmf"] += 1
        pmf_init(self)

    monkeypatch.setattr(graphs.Graph, "__post_init__", count_graph)
    monkeypatch.setattr(source_coding.ProbabilityMassFunction, "__post_init__", count_pmf)
    spanning_tree_entropy_extrema(k5)
    assert built == {"Graph": 0, "pmf": 0}
    mst_entropy_extrema(weighted)
    assert built == {"Graph": 0, "pmf": 0}


def test_spanning_search_leaves_no_cyclic_garbage():
    # the whole list of trees must be freed when the caller drops it, not
    # wait for a cycle collection
    k5 = complete_graph(5)
    _, ends, stops = graphs._canonical(k5.edges, k5._order_key)
    gc.collect()
    gc.disable()
    try:
        trees = list(graphs._spanning_search(5, ends, stops, _never))
        assert len(trees) == 125
        del trees
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fold_evaluates_entropy_once_per_degree_vector(monkeypatch):
    k6 = complete_graph(6)
    weighted = WeightedGraph(k6.vertices, tuple((u, v, float((u + v) % 3 + 1)) for u, v in k6.edges))
    trees = _trees_in_search_order(k6)
    assert len(trees) == 1296
    hs = [graph_entropy(Graph(k6.vertices, tuple(t))) for t in trees]
    weight = {(u, v): w for u, v, w in weighted.edges}
    weights = [math.fsum(map(weight.__getitem__, t)) for t in trees]
    msts = [i for i, w in enumerate(weights) if w == min(weights)]

    def degree_vector(t):
        return tuple(Graph(k6.vertices, tuple(t)).degree()[v] for v in k6.vertices)

    calls = []
    entropy = graphs._entropy

    def counted(probs, base):
        calls.append(1)
        return entropy(probs, base)

    monkeypatch.setattr(graphs, "_entropy", counted)
    lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(k6)
    # trees compare by their product of d**d; only the two winners' entropy
    # is evaluated, fewer calls than one per degree vector
    assert len(calls) <= 2 < len({degree_vector(t) for t in trees})
    assert (lo, hi) == (min(hs), max(hs))
    assert frozenset(t_lo) == trees[hs.index(lo)] and frozenset(t_hi) == trees[hs.index(hi)]

    calls.clear()
    assert mst_entropy_extrema(weighted) == (min(hs[i] for i in msts), max(hs[i] for i in msts))
    assert len(calls) <= 2 < len({degree_vector(trees[i]) for i in msts})


def _wheel(k):
    """Hub 0 joined to every vertex of the rim cycle 1..k."""
    rim = tuple((i, i % k + 1) for i in range(1, k + 1))
    return Graph(tuple(range(k + 1)), tuple((0, i) for i in range(1, k + 1)) + rim)


def _cube():
    """The cube Q3: vertices are 3-bit labels, edges flip one bit."""
    return Graph(tuple(range(8)), tuple((i, i | b) for i in range(8) for b in (1, 2, 4) if not i & b))


def _k36():
    """The complete bipartite graph K(3,6), on a0..a2 and b0..b5."""
    return Graph(tuple(f"{s}{i}" for s, k in (("a", 3), ("b", 6)) for i in range(k)),
                 tuple((f"a{i}", f"b{j}") for i in range(3) for j in range(6)))


def _tie_families():
    """Graphs whose spanning trees tie in entropy in many ways, then random ones."""
    yield from (ring_graph(n) for n in range(3, 10))
    yield from (complete_graph(n) for n in range(2, 8))
    yield Graph(tuple(range(6)), tuple((i, j) for i in range(3) for j in range(3, 6)))
    yield _cube()
    yield from (_wheel(k) for k in range(3, 8))
    for seed in range(60):
        rng = random.Random(9700 + seed)
        n = rng.randint(2, 8)
        vertices, edges = random_weighted_connected(rng, n, rng.randint(0, min(8, (n - 1) * (n - 2) // 2)))
        yield Graph(vertices, tuple((u, v) for u, v, _ in edges))


def test_search_matches_subset_oracle_with_forced_ties():
    tied = 0
    for g in _tie_families():
        trees = _trees_in_search_order(g)
        hs = [graph_entropy(Graph(g.vertices, tuple(t))) for t in trees]
        lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(g)
        assert (lo, hi) == (min(hs), max(hs))
        assert frozenset(t_lo) == trees[hs.index(lo)]
        assert frozenset(t_hi) == trees[hs.index(hi)]
        tied += hs.count(lo) > 1 and hs.count(hi) > 1
    # many graphs have several trees at both extrema
    assert tied > 10


def test_all_scope_on_k6_k8_and_its_guard():
    k6 = complete_graph(6)
    trees = _trees_in_search_order(k6)
    hs = [graph_entropy(Graph(k6.vertices, tuple(t))) for t in trees]
    lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(k6)
    assert (lo, hi) == (min(hs), max(hs))
    assert (frozenset(t_lo), frozenset(t_hi)) == (trees[hs.index(lo)], trees[hs.index(hi)])
    # of K8's 262144 trees, the first star and the first Hamiltonian path in
    # include-first order
    k8 = complete_graph(8)
    star = tuple((0, v) for v in range(1, 8))
    path = ((0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7))
    h_star, h_path = (graph_entropy(Graph(k8.vertices, t)) for t in (star, path))
    assert spanning_tree_entropy_extrema(k8) == (h_star, h_path, star, path)
    # the guards still refuse first, with their own messages
    with pytest.raises(ValueError, match="over the enumeration budget"):
        spanning_tree_entropy_extrema(complete_graph(9))


def _tree_with_degrees(deg):
    """A tree on vertices 0..n-1 in which vertex i has degree deg[i], decoded
    from the Pruefer sequence that lists i deg[i] - 1 times."""
    left = list(deg)
    edges = []
    for v in [v for v, d in enumerate(deg) for _ in range(d - 1)]:
        leaf = left.index(1)
        edges.append((leaf, v))
        left[leaf] -= 1
        left[v] -= 1
    edges.append(tuple(v for v, d in enumerate(left) if d == 1))
    return Graph(tuple(range(len(deg))), tuple(edges))


def test_product_of_self_powers_orders_trees_as_entropy_does():
    # the searches compare trees by prod d**d; on every degree sequence of a
    # tree the guard admits, that order is graph_entropy's, reversed, with
    # the same ties (it first fails at 12 vertices)
    for n in range(2, graphs.ENUMERATION_GUARD + 1):
        keyed = []
        for deg in itertools.combinations_with_replacement(range(1, n), n):
            if sum(deg) == 2 * (n - 1):
                t = _tree_with_degrees(deg)
                assert tuple(t.degree().values()) == deg
                keyed.append((graph_entropy(t), math.prod(d**d for d in deg)))
        for (h1, p1), (h2, p2) in itertools.combinations(keyed, 2):
            assert (h1 < h2, h1 == h2) == (p1 > p2, p1 == p2)


def test_returned_trees_are_checked(monkeypatch):
    # both scopes' trees are checked against the graph and against the
    # degree vectors the fold counted; a mismatch is a bug, not a refusal
    k4 = complete_graph(4)
    unit = WeightedGraph(k4.vertices, tuple((u, v, 1.0) for u, v in k4.edges))
    scopes = (lambda: spanning_tree_entropy_extrema(k4), lambda: mst_entropy_extrema(unit))
    with monkeypatch.context() as m:
        m.setattr(graphs.Graph, "degree", lambda self: dict.fromkeys(self.vertices, 1))
        for scope in scopes:
            with pytest.raises(RuntimeError, match="degree vector differs"):
                scope()
    with monkeypatch.context() as m:
        m.setattr(graphs, "is_connected", lambda g: False)
        for scope in scopes:
            with pytest.raises(RuntimeError, match="not a spanning tree of the graph"):
                scope()


def test_mst_scope_winners_weigh_at_most_the_mst(monkeypatch):
    # the star at 0 is the only MST; with every stop at the last edge the
    # search yields every tree, a heavier path wins the maximum and the
    # weight check must refuse it
    g = WeightedGraph(tuple(range(4)), (
        (0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (1, 2, 2.0), (2, 3, 2.0),
    ))
    h_star = graph_entropy(Graph(g.vertices, ((0, 1), (0, 2), (0, 3))))
    assert mst_entropy_extrema(g) == (h_star, h_star)
    canonical = graphs._canonical

    def one_class(edges, rank):
        edges, ends, _ = canonical(edges, rank)
        return edges, ends, [len(ends)] * len(ends)

    monkeypatch.setattr(graphs, "_canonical", one_class)
    with pytest.raises(RuntimeError, match="heavier than the minimum spanning tree"):
        mst_entropy_extrema(g)


def test_equal_weights_give_equal_scopes():
    # every tree is minimal, so the scopes must agree although only the
    # all-trees scope has the degree bound; on K8 the MST scope relies on
    # the shared stop at the first path and star in search order, and on
    # K(3,6) neither stop fires, so it visits all 8748 trees
    for g in (complete_graph(8), _k36(), _cube(), *(_wheel(k) for k in range(3, 8))):
        for w in (1.0, 0.1):
            weighted = WeightedGraph(g.vertices, tuple((u, v, w) for u, v in g.edges))
            assert mst_entropy_extrema(weighted) == spanning_tree_entropy_extrema(g)[:2]


def _pool_graph(rng):
    """An 8-vertex, 16-edge graph drawn as the enumerate benchmark draws its
    small class: n0 joined to three random vertices, then 13 random pairs,
    redrawn until connected (with no target tree count)."""
    names = [f"n{i}" for i in range(8)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    while True:
        star = rng.sample(names[1:], 3)
        edges = [("n0", v) for v in star]
        edges += rng.sample([p for p in pairs if not (p[0] == "n0" and p[1] in star)], 13)
        rng.shuffle(edges)
        if math.inf not in shortest_hops(names, edges, "n0").values():
            return Graph(tuple(names), tuple(edges))


def _fold(g, seeds):
    """The all-trees fold of g started from ``seeds``, (least, greatest) products."""
    power = graphs._guarded_powers(g)
    edges, ends, stops = graphs._canonical(g.edges, g._order_key)
    return graphs._extrema(g, power, edges, ends, stops, functools.partial(graphs._degree_cut, ends, power), seeds)


def _product(tree):
    return math.prod(d**d for d in collections.Counter(itertools.chain.from_iterable(tree)).values())


def test_greedy_seeds_name_the_trees_any_seeds_name():
    # the seeds only start the fold: seeded by the first and last trees in
    # search order, by the extrema themselves, or not at all, it names the
    # same trees
    for g in (*_tie_families(), *(_pool_graph(random.Random(9900 + seed)) for seed in range(20))):
        got = spanning_tree_entropy_extrema(g)
        products = [_product(t) for t in _trees_in_search_order(g)]
        first_last = sorted((products[0], products[-1]))
        assert _fold(g, first_last) == _fold(g, (min(products), max(products))) == _fold(g, None) == got
        # both greedy trees are spanning trees of g, by the oracle's hop count
        edges, ends, _ = graphs._canonical(g.edges, g._order_key)
        for picked in graphs._greedy_trees(len(g.vertices), ends):
            tree = [edges[j] for j in picked]
            assert len(tree) == len(g.vertices) - 1 and set(tree) <= set(g.edges)
            assert math.inf not in shortest_hops(g.vertices, tree, g.vertices[0]).values()


def test_a_seed_better_than_every_tree_is_refused():
    # no tree beats it, so the fold names none and the tree check refuses
    k4 = complete_graph(4)
    with pytest.raises(RuntimeError, match="not a spanning tree of the graph"):
        _fold(k4, (4**2 - 1, 3**3 + 1))


def test_greedy_seeds_save_a_third_of_the_cut_evaluations(monkeypatch):
    g = _pool_graph(random.Random(9900))
    evaluations = []
    degree_cut = graphs._degree_cut

    def counted(ends, power, found):
        cut = degree_cut(ends, power, found)

        def counting(*branch):
            evaluations.append(1)
            return cut(*branch)

        return counting

    monkeypatch.setattr(graphs, "_degree_cut", counted)
    want = spanning_tree_entropy_extrema(g)
    seeded = len(evaluations)
    evaluations.clear()
    # unseeded, as before the greedy seeds, the fold asks the cut 92 times on
    # this graph; seeded, 54 times
    assert _fold(g, None) == want
    assert len(evaluations) == 92
    assert seeded <= 92 * 2 // 3


def test_complete_bipartite_k36_proves_both_extrema():
    # K(3,6) has no star and no Hamiltonian path, so neither early stop
    # fires and the fold must prove both optima
    g = _k36()
    trees = _trees_in_search_order(g)
    assert len(trees) == 8748
    hs = [graph_entropy(Graph(g.vertices, tuple(t))) for t in trees]
    lo, hi, t_lo, t_hi = spanning_tree_entropy_extrema(g)
    assert (lo, hi) == (min(hs), max(hs))
    assert frozenset(t_lo) == trees[hs.index(lo)]
    assert frozenset(t_hi) == trees[hs.index(hi)]
    star = graph_entropy(star_graph(8))
    path = graph_entropy(path_graph(9))
    assert star < lo and hi < path
    assert f"{hi:.6f}" == "3.030639"
