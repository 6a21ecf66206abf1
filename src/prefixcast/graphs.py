"""Graphs, degree-distribution entropy, spanning trees, and MSTs.

The entropy of a graph here is the Shannon entropy of its degree
distribution: each vertex gets probability deg(v) divided by the total
degree. Conditional entropy, mutual information against a vertex coloring,
Tsallis entropy, and Kullback-Leibler divergence between two graphs all
derive from the same distribution. Spanning trees come from one
include-first search over the edges in Kruskal's order, which asks a cut of
each branch; it always runs under one. Before it runs, one routine guards
the graph: more than ``ENUMERATION_GUARD`` vertices is refused, then the
matrix-tree determinant counts the trees, and a count of 0 (disconnected)
or above ``TREE_BUDGET`` is refused. The two entropy scopes share that
guard, the search and one fold. Over all trees the edges are one class and
a degree bound drops a branch when no tree below it beats the trees found
so far. Over the minimum spanning trees each weight class must span what
it and the lighter classes join, so the search reaches those trees alone
and nothing is cut. Over all trees the fold starts from the products of two
greedy trees, taken as trees just short of them, so ties still go to the
first extremal tree. A tree is the tuple of its edges; the fold compares trees by
the exact integer product of d**d over their degrees, checks both winners
and evaluates their entropy alone. A graph is checked once, when built, by
one pass of ``_checked_pairs`` over its edges.
Every tie follows one order, each vertex's int rank from ``_vertex_ranks``,
which a Graph and a WeightedGraph keep as ``_order_key``. A WeightedGraph
also keeps each edge's packed rank key and weight, which Kruskal sorts on,
and builds its unweighted Graph only when asked. An MST shares its graph's
ranks and keeps its edges' checked triples, keys and weights; it is not
checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, compress, groupby
from operator import itemgetter, not_

from .source_coding import ProbabilityMassFunction, _entropy, _integer, shannon_entropy

ENUMERATION_GUARD = 9
# K8 (262144 trees) fits; K9 (4782969) is refused before the search
TREE_BUDGET = 500_000


class InfiniteDivergence(ValueError):
    """KL divergence is +infinity: the second pmf has a zero where the first does not."""


def _vertex_ranks(vertices: tuple) -> dict:
    """Each vertex id's rank in one total order: the int ids (not bools) by
    value, then every other id by its ``str``. Both sorts are stable, so ids
    that tie keep their input order and ranks are one-to-one."""
    is_int = [isinstance(v, int) and not isinstance(v, bool) for v in vertices]
    order = sorted(compress(vertices, is_int))
    order += sorted(compress(vertices, map(not_, is_int)), key=str)
    return dict(zip(order, range(len(order))))


def _checked_pairs(vertices: tuple, edges, noun: str, rank: dict, directed: bool = False) -> tuple:
    """Each edge, a (u, v) pair or a (u, v, w) triple, lower ``rank`` (vertex ->
    int) end first, with its packed key ``rank[lo] * n + rank[hi]``: a tuple of
    the edges, the given tuple kept when it is in rank order, and a list of
    their keys. A ``directed`` edge keeps its ends, and its key packs them, as
    given. Rejects duplicate vertex ids, self-loops, unknown endpoints and
    repeats, naming an edge as given; a repeat is a second edge with the same
    key."""
    n = len(rank)
    if n != len(vertices):
        raise ValueError("duplicate vertex ids")
    seen = set()
    keys = []
    out = []
    for e in edges:
        u, v = e[0], e[1]
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        try:
            ru, rv = rank[u], rank[v]
        except KeyError:
            raise ValueError(f"{noun} ({u!r}, {v!r}) references unknown vertex") from None
        if rv < ru and not directed:
            key = rv * n + ru
            e = (v, u) + e[2:]
        else:
            key = ru * n + rv
        if key in seen:
            raise ValueError(f"repeated {noun} ({u!r}, {v!r})")
        seen.add(key)
        keys.append(key)
        out.append(e)
    return tuple(out), keys


@dataclass(frozen=True)
class Graph:
    """Undirected graph: ordered vertex ids, edges without loops or repeats."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        verts = tuple(self.vertices)
        rank = _vertex_ranks(verts)
        edges, _ = _checked_pairs(verts, ((u, v) for u, v in self.edges), "edge", rank)
        self._set(verts, edges, rank)

    @classmethod
    def _trusted(cls, vertices: tuple, edges: tuple, rank: dict) -> Graph:
        """A Graph of pairs already checked and oriented by ``rank``, not checked again."""
        return object.__new__(cls)._set(vertices, edges, rank)

    def _set(self, vertices: tuple, edges: tuple, rank: dict) -> Graph:
        self.__dict__.update(vertices=vertices, edges=edges, _order_key=rank)
        return self

    def degree(self) -> dict:
        deg = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    # built on first use: most graphs never look up an edge
    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph whose edges carry finite nonnegative weights."""

    vertices: tuple
    edges: tuple  # (u, v, w) triples

    def __post_init__(self):
        # every weight is checked before any endpoint, loop or repeat
        triples = []
        weights = []
        for e in self.edges:
            u, v, w = e
            x = float(w) or 0.0  # a weight of -0.0 is stored as 0.0
            if not (math.isfinite(x) and x >= 0.0):
                raise ValueError(f"edge ({u!r}, {v!r}) has invalid weight {x!r}")
            # a float triple, as the parser gives it, is kept as it is unless it weighs zero
            triples.append(e if type(e) is tuple and type(w) is float and x else (u, v, x))
            weights.append(x)
        verts = tuple(self.vertices)
        rank = _vertex_ranks(verts)
        edges, keys = _checked_pairs(verts, triples, "edge", rank)
        self._set(verts, edges, rank, keys, weights)

    @classmethod
    def _trusted(cls, vertices: tuple, edges: tuple, rank: dict, keys: list, weights: list) -> WeightedGraph:
        """Checked, oriented (u, v, w) triples with their packed rank keys and
        weights, as :func:`_checked_pairs` gives them; not checked again."""
        return object.__new__(cls)._set(vertices, edges, rank, keys, weights)

    def _set(self, vertices: tuple, edges: tuple, rank: dict, keys: list, weights: list) -> WeightedGraph:
        self.__dict__.update(vertices=vertices, edges=edges, _order_key=rank, _keys=keys, _weights=weights)
        return self

    # built on first use: the plan path reads only the ranks and keys
    @cached_property
    def _graph(self) -> Graph:
        return Graph._trusted(self.vertices, tuple((u, v) for u, v, _ in self.edges), self._order_key)

    def graph(self) -> Graph:
        """The unweighted graph, with this graph's checked edges and ranks,
        built on the first call and the same object on every later one."""
        return self._graph

    def total_weight(self) -> float:
        try:
            return math.fsum(w for _, _, w in self.edges)
        except OverflowError:
            raise ValueError("the total weight overflows a float") from None


@dataclass(frozen=True)
class DiGraph:
    """Directed graph: ordered vertices, arc set without self-loops."""

    vertices: tuple
    arcs: tuple

    def __post_init__(self):
        verts = tuple(self.vertices)
        position = dict(zip(verts, range(len(verts))))
        arcs, _ = _checked_pairs(verts, ((u, v) for u, v in self.arcs), "arc", position, directed=True)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "arcs", arcs)


@dataclass(frozen=True)
class VertexColoring:
    """Assignment of a color label to each vertex it mentions."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(tuple(e) for e in self.entries)
        if len(dict(entries)) != len(entries):
            raise ValueError("vertex colored twice")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_dict(cls, mapping) -> "VertexColoring":
        return cls(tuple(mapping.items()))

    def as_dict(self) -> dict:
        return dict(self.entries)


# ------------------------------------------------------------- degree pmfs


def _degree_distribution(g: Graph) -> list:
    """(vertex, probability) pairs in vertex order; requires an edge."""
    deg = g.degree()
    total = sum(deg.values())
    if total == 0:
        raise ValueError("graph has no edges; degree distribution undefined")
    return [(v, deg[v] / total) for v in g.vertices]


def degree_pmf(g: Graph) -> ProbabilityMassFunction:
    """deg(v) normalized by the total degree, one entry per vertex."""
    return ProbabilityMassFunction.from_pairs(_degree_distribution(g))


def graph_entropy(g: Graph) -> float:
    """Shannon entropy of the degree distribution, in bits."""
    return shannon_entropy(degree_pmf(g), base=2.0)


def tsallis_graph_entropy(g: Graph, q: float) -> float:
    """Tsallis entropy (1 - sum p**q) / (q - 1) of the degree distribution.

    q must differ from 1; as q approaches 1 the value approaches the Shannon
    entropy in nats. Zero-probability vertices contribute nothing.

    Near q = 1 the subtraction 1 - sum p**q cancels. Within 1/2 of it the sum
    is taken as -sum p * expm1((q - 1) ln p) / (q - 1), the same value since
    the p sum to 1, whose terms are all nonnegative; farther out the direct
    form rounds less.
    """
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, got {q}")
    if q == 1.0:
        raise ValueError("q=1 is the Shannon limit, where the Tsallis form is undefined")
    d = q - 1.0
    probs = [p for _, p in _degree_distribution(g) if p > 0.0]
    if abs(d) < 0.5:
        return -math.fsum(p * math.expm1(d * math.log(p)) for p in probs) / d
    try:
        s = math.fsum(p**q for p in probs)
    except OverflowError:
        raise ValueError(f"the Tsallis sum overflows at q={q}") from None
    return (1.0 - s) / d


def conditional_graph_entropy(g: Graph, coloring: VertexColoring) -> float:
    """H(V|C) in bits: class entropies weighted by degree-probability mass.

    Weighting each color class by its share of the degree distribution keeps
    the chain rule H(V) = H(C) + H(V|C) exact. The coloring must cover every
    vertex.
    """
    dist = _degree_distribution(g)
    colors = coloring.as_dict()
    missing = [v for v, _ in dist if v not in colors]
    if missing:
        raise ValueError(f"coloring misses vertices: {missing!r}")
    classes: dict = {}
    for v, p in dist:
        classes.setdefault(colors[v], []).append(p)
    total = 0.0
    for probs in classes.values():
        mass = math.fsum(probs)
        if mass <= 0.0:
            continue
        inner = -math.fsum(
            (p / mass) * math.log2(p / mass) for p in probs if p > 0.0
        )
        total += mass * inner
    return total


def graph_mutual_information(g: Graph, coloring: VertexColoring) -> float:
    """I(V;C) = H(V) - H(V|C) in bits; nonnegative."""
    return graph_entropy(g) - conditional_graph_entropy(g, coloring)


def graph_kl_divergence(g1: Graph, g2: Graph, correspondence: dict | None = None) -> float:
    """KL divergence between the degree distributions of two graphs, in bits.

    ``correspondence`` maps each g1 vertex to a distinct g2 vertex; identity
    is assumed when omitted and the vertex id sets coincide. Raises
    :class:`InfiniteDivergence` when g2 gives zero probability to a vertex
    g1 gives positive probability.
    """
    if len(g1.vertices) != len(g2.vertices):
        raise ValueError(
            f"vertex counts differ: {len(g1.vertices)} vs {len(g2.vertices)}"
        )
    if correspondence is None:
        if set(g1.vertices) != set(g2.vertices):
            raise ValueError(
                "vertex id sets differ; an explicit correspondence is required"
            )
        correspondence = {v: v for v in g1.vertices}
    if set(correspondence.keys()) != set(g1.vertices):
        raise ValueError("correspondence does not cover the first graph's vertices")
    images = list(correspondence.values())
    if len(set(images)) != len(images) or set(images) != set(g2.vertices):
        raise ValueError("correspondence is not a bijection onto the second graph")

    p1 = dict(_degree_distribution(g1))
    p2 = dict(_degree_distribution(g2))
    total = 0.0
    for v in g1.vertices:
        p = p1[v]
        if p <= 0.0:
            continue
        qv = p2[correspondence[v]]
        if qv <= 0.0:
            raise InfiniteDivergence(
                f"vertex {correspondence[v]!r} has zero degree in the second graph"
            )
        total += p * math.log2(p / qv)
    return total


def in_out_degree_pmfs(g: DiGraph) -> tuple[ProbabilityMassFunction, ProbabilityMassFunction]:
    """In-degree and out-degree distributions, each normalized by arc count."""
    if not g.arcs:
        raise ValueError("digraph has no arcs; degree distributions undefined")
    n_arcs = len(g.arcs)
    indeg = {v: 0 for v in g.vertices}
    outdeg = {v: 0 for v in g.vertices}
    for u, v in g.arcs:
        outdeg[u] += 1
        indeg[v] += 1
    in_pmf = ProbabilityMassFunction.from_pairs(
        (v, indeg[v] / n_arcs) for v in g.vertices
    )
    out_pmf = ProbabilityMassFunction.from_pairs(
        (v, outdeg[v] / n_arcs) for v in g.vertices
    )
    return in_pmf, out_pmf


def is_regular(g: Graph):
    """The common degree when all vertices share one, else None.

    For a regular graph on n vertices the degree distribution is uniform, so
    graph_entropy equals log2 n, its maximum.
    """
    degrees = set(g.degree().values())
    if len(degrees) == 1:
        return degrees.pop()
    return None


# ---------------------------------------------------------- spanning trees


def _hop_levels(g: Graph, source) -> dict:
    """Hop distance from ``source`` to every vertex it reaches, by BFS."""
    adj = g.adjacency()
    level = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in level:
                    level[v] = d
                    nxt.append(v)
        frontier = nxt
    return level


def is_connected(g: Graph) -> bool:
    return not g.vertices or len(_hop_levels(g, g.vertices[0])) == len(g.vertices)


def _find(parent: list, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _is_mst(g: WeightedGraph, carrier) -> bool:
    """True when ``carrier`` (u, v, w edges) is a minimum spanning tree of g.

    Kruskal's scan over the edges of g by weight, carrier edges first on
    ties: every carrier edge must join two components and every other edge
    must find its endpoints already joined. The second condition is the
    cycle property (no edge is lighter than the heaviest carrier edge on
    the path it closes), so the verdict is exact, in O(E log E). The scan
    takes only the edges no heavier than the heaviest carrier edge, since a
    heavier edge closes a cycle of lighter carrier edges, and it stops once
    n - 1 carrier edges have joined, since every later edge is then a
    non-carrier edge with joined endpoints. A carrier edge that names a
    vertex absent from g, or that g does not have, fails it.
    """
    n = len(g.vertices)
    rank = g._order_key
    if any(u not in rank or v not in rank for u, v, _ in carrier):
        return False
    tree = {(u, v, w) if rank[u] <= rank[v] else (v, u, w) for u, v, w in carrier}
    if not len(carrier) == len(tree) == n - 1:
        return False
    top = max((w for _, _, w in tree), default=0.0)
    parent = list(range(n))
    joined = 0
    # carrier edges first, then by weight: both stable, so carrier edges lead on ties
    scan = sorted([e for e in g.edges if e[2] <= top], key=tree.__contains__, reverse=True)
    scan.sort(key=itemgetter(2))
    for e in scan:
        ru, rv = _find(parent, rank[e[0]]), _find(parent, rank[e[1]])
        joins = ru != rv
        if joins != (e in tree):
            return False
        if joins:
            parent[ru] = rv
            joined += 1
            if joined == n - 1:
                return True
    # the carrier has an edge g lacks, unless n == 1 and there is none to join
    return joined == n - 1


def _int_determinant(m: list) -> int:
    """Exact determinant of a nonempty positive semidefinite integer matrix,
    such as a reduced Laplacian, by fraction-free Gaussian elimination.

    What is left after each step is a positive multiple of a Schur
    complement, which is positive semidefinite, so a zero pivot has only
    zeros below it: no row swap can help and the determinant is 0.
    """
    n = len(m)
    m = [row[:] for row in m]
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return m[-1][-1]


def _matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees from the Laplacian minor determinant."""
    n = len(g.vertices)
    if n <= 1:
        return 1
    rank = g._order_key
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        iu, iv = rank[u], rank[v]
        lap[iu][iu] += 1
        lap[iv][iv] += 1
        lap[iu][iv] -= 1
        lap[iv][iu] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _int_determinant(minor)


def _joined_later(ends: list, start: int, stop: int, comp: list, a: int, b: int) -> bool:
    """True when the edges ``ends[start:stop]`` join components ``a`` and ``b``.

    ``comp`` labels each vertex index with its component; the scan unions
    labels and stops as soon as the sets holding ``a`` and ``b`` meet.
    """
    parent = list(range(len(comp)))
    for x, y in ends[start:stop]:
        x, y = comp[x], comp[y]
        while parent[x] != x:
            x = parent[x]
        while parent[y] != y:
            y = parent[y]
        if x != y:
            parent[x] = y
            # a and b stay the roots of their sets
            if x == a:
                a = y
            elif x == b:
                b = y
            if a == b:
                return True
    return False


def _canonical(edges, rank: dict) -> tuple[list, list, list]:
    """``edges``, pairs or (u, v, w) triples, in the searches' order, Kruskal's:
    by weight, if any, then by their endpoints' ranks; those rank pairs; and
    each edge's stop, the index just past the last edge of its weight, which
    ends its weight class. Pairs are one class: every stop is their count."""
    edges = sorted(edges, key=lambda e: (e[2:], rank[e[0]], rank[e[1]]))
    stops = []
    for _, run in groupby(e[2:] for e in edges):
        k = sum(1 for _ in run)
        stops += [len(stops) + k] * k
    return edges, [(rank[e[0]], rank[e[1]]) for e in edges], stops


def _spanning_search(n: int, ends: list, stops: list, cut):
    """Yield the indices into ``ends`` of each spanning tree that ``cut`` keeps,
    on vertices 0..n-1, n >= 1, that picks in each weight class a spanning
    forest over the components of the lighter classes.

    ``stops[i]`` ends edge i's class (see :func:`_canonical`). In Kruskal's
    order those trees are exactly the minimum spanning trees, each reached
    once; with one class, every stop ``len(ends)``, they are all the trees.
    Depth-first over the edges in ``ends`` order, including an edge before
    excluding it. The invariant is that the picked edges plus the class's
    edges not yet decided join what every edge up to its stop joins, so
    every branch ends in a tree. Including an edge that joins two
    components keeps that edge set as it is, and excluding an edge that
    closes a cycle of picked, no heavier edges loses no connection, so
    neither is tested. Only excluding a joining edge is: the later edges
    must be at least as many as the tree still needs, and those before its
    stop must join its two components in the graph contracted by the picked
    edges. ``cut(i, comp, need, picked)`` is asked when a branch is popped
    and after each include, leaves included, with i the next edge, comp the
    component label of each vertex, need the edges still needed and picked
    the indices taken; a true answer drops the branch and every tree below
    it. The all-trees scope passes :func:`_degree_cut`, the MST scope a cut
    that never fires; under such a cut the index tuples come in
    lexicographic order.
    """
    m = len(ends)
    # a popped branch takes the include path to its tree and pushes each
    # exclude branch that still holds one
    stack = [(0, list(range(n)), n - 1, ())]
    while stack:
        branch = stack.pop()
        if cut(*branch):
            continue
        i, comp, need, picked = branch
        while need:
            x, y = ends[i]
            a, b = comp[x], comp[y]
            if a != b:
                if m - i > need and _joined_later(ends, i + 1, stops[i], comp, a, b):
                    stack.append((i + 1, comp, need, picked))
                comp = [a if c == b else c for c in comp]
                need -= 1
                picked += (i,)
                if cut(i + 1, comp, need, picked):
                    break
            i += 1
        else:
            yield picked


def _guarded_powers(g: Graph) -> list:
    """``d**d`` for each degree a spanning tree of g can have, once g passes the
    guards of both entropy scopes, in this order: at most ``ENUMERATION_GUARD``
    vertices, a matrix-tree count that is not 0 (g is connected) and at most
    ``TREE_BUDGET``, and an edge.

    A tree's entropy is log2(2(n-1)) - S/(2(n-1)) with S the sum of
    d*log2(d) over its degrees, so the product of their ``d**d``, 2**S,
    orders trees by entropy, reversed, in exact integers. On trees of at
    most ``ENUMERATION_GUARD`` vertices it ties exactly where the entropy
    does.
    """
    n = len(g.vertices)
    if n > ENUMERATION_GUARD:
        raise ValueError(
            f"{n} vertices exceeds the enumeration guard of {ENUMERATION_GUARD}"
        )
    count = _matrix_tree_count(g)
    if count == 0:
        raise ValueError("graph is disconnected; it has no spanning tree")
    if count > TREE_BUDGET:
        raise ValueError(
            f"graph has {count} spanning trees, over the enumeration "
            f"budget of {TREE_BUDGET}"
        )
    if n <= 1:
        raise ValueError("spanning trees of a trivial graph have no edges")
    return [d**d for d in range(n)]


def _tree_entropy(deg) -> float:
    """Entropy of a tree's degree vector by :func:`graph_entropy`'s formula, so
    the values are equal."""
    total = sum(deg)
    return _entropy((c / total for c in deg), 2.0)


def _check_tree(g: Graph, tree: tuple, deg: list) -> None:
    """Raise RuntimeError unless ``tree``, pairs or (u, v, w) triples, is a
    spanning tree of g whose degree vector, indexed by rank, is ``deg``."""
    rank = g._order_key
    tree = tuple(e[:2] for e in tree)
    t = Graph._trusted(g.vertices, tree, rank)
    if not (len(tree) == len(rank) - 1 and g._edge_set.issuperset(tree) and is_connected(t)):
        raise RuntimeError(
            f"the search returned {len(tree)} edges that are not a spanning tree of the graph"
        )
    got = t.degree()
    if any(got[v] != deg[rank[v]] for v in g.vertices):
        raise RuntimeError("a returned tree's degree vector differs from the one the fold counted")


def _degrees(n: int, ends: list, picked: tuple) -> list:
    """The degree of each vertex 0..n-1 over the edges ``picked`` from ``ends``."""
    deg = [0] * n
    for j in picked:
        x, y = ends[j]
        deg[x] += 1
        deg[y] += 1
    return deg


def _extrema(g: Graph, power: list, edges: list, ends: list, stops: list, cut_for, seeds=None) -> tuple:
    """(min, max, argmin tree, argmax tree) of entropy over the trees of g that
    :func:`_spanning_search` yields under ``cut_for(found)``: the one fold of
    both scopes, over every tree or, with Kruskal's order and its class
    stops, over the minimum ones.

    ``edges``, ``ends`` and ``stops`` are :func:`_canonical`'s, and ``found``
    holds the least and greatest products so far, kept current for the cut;
    the MST scope's never fires, so its fold visits every MST up to the
    early stop. Trees compare by their product of ``d**d`` (see
    :func:`_guarded_powers`), and an incumbent is replaced only by a
    strictly better tree, so ties go to the first tree in the search's
    order. ``seeds``, the least and greatest products of some trees of g,
    start ``found`` one past them, as trees no better than the seeds: the
    cut then drops only branches with no tree at least as good as a seed,
    and the first extremal tree is one, so it is still the one named. The
    fold stops once the least product is the path's, 4**(n-2), and the
    greatest the star's, (n-1)**(n-1), which no tree passes. Each winner is
    checked to be a spanning tree of g with the degree vector the fold
    counted, and its entropy comes from that vector alone. A tree is the
    tuple of its edges from ``edges``, pairs or (u, v, w) triples.
    """
    n = len(power)
    path, star = 4 ** (n - 2), (n - 1) ** (n - 1)
    # every tree's product lies in [path, star]; a search that yields no
    # tree better than the seeds, as when a seed beats every tree, leaves
    # two empty winners, which the check refuses
    least, most = seeds or (star, path)
    found = [least + 1, most - 1]
    least_picked = most_picked = ()
    least_deg = most_deg = [0] * n
    for picked in _spanning_search(n, ends, stops, cut_for(found)):
        deg = _degrees(n, ends, picked)
        p = math.prod(map(power.__getitem__, deg))
        if p < found[0]:
            found[0], least_picked, least_deg = p, picked, deg
        if p > found[1]:
            found[1], most_picked, most_deg = p, picked, deg
        if found == [path, star]:
            break
    t_lo, t_hi = (tuple(map(edges.__getitem__, t)) for t in (most_picked, least_picked))
    _check_tree(g, t_lo, most_deg)
    _check_tree(g, t_hi, least_deg)
    return _tree_entropy(most_deg), _tree_entropy(least_deg), t_lo, t_hi


def _degree_cut(ends: list, power: list, found: list):
    """The all-trees scope's cut: true when no tree below the branch strictly
    beats either incumbent, the least and greatest products in ``found``.

    Below a branch each degree lies between a floor, max(1, picked degree),
    and a cap, the picked degree plus the number of other components its
    undecided edges reach, at most the edges still needed; the degrees sum
    to 2(n-1). A unit of degree added at d multiplies the product by
    (d+1)**(d+1) / d**d, which grows with d alone. So over that box the
    least product adds the spare units at the least degrees (water-filling),
    and the spare largest steps bound the greatest one; when that bound does
    not cut, a knapsack over the vertices finds the greatest product
    exactly. A leaf is never cut: the fold keeps it only if it is strictly
    better.
    """
    n = len(power)
    total = 2 * (n - 1)
    star = (n - 1) ** (n - 1)

    def cut(i: int, comp: list, need: int, picked: tuple) -> bool:
        if not need:
            return False
        least, most = found
        deg = _degrees(n, ends, picked)
        reach = [0] * n
        for x, y in ends[i:]:
            a, b = comp[x], comp[y]
            if a != b:
                reach[x] |= 1 << b
                reach[y] |= 1 << a
        floors = [d or 1 for d in deg]
        caps = [d + (r if r < need else need) for d, r in zip(deg, map(int.bit_count, reach))]
        spare = total - sum(floors)
        # each unit step the box allows, as the degree it starts from
        steps = sorted(chain.from_iterable(map(range, floors, caps)))
        base = math.prod(map(power.__getitem__, floors))
        low, scale = base, 1
        for d in steps[:spare]:
            low *= power[d + 1]
            scale *= power[d]
        if low < least * scale:
            return False
        if most == star:
            return True
        high, scale = base, 1
        for d in steps[len(steps) - spare:]:
            high *= power[d + 1]
            scale *= power[d]
        if high <= most * scale:
            return True
        # best[u]: the greatest product over the vertices so far with u
        # spare units added
        best = [1] + [0] * spare
        for f, c in zip(floors, caps):
            row = power[f : c + 1]
            nxt = [0] * (spare + 1)
            for u, x in enumerate(best):
                if x:
                    for k, p in enumerate(row[: spare + 1 - u], u):
                        if x * p > nxt[k]:
                            nxt[k] = x * p
            best = nxt
        return best[spare] <= most

    return cut


def _greedy_trees(n: int, ends: list) -> tuple[list, list]:
    """Two spanning trees of a connected graph on vertices 0..n-1 with edges
    ``ends``, as indices into it: a bushy one and a path-like one.

    The bushy tree starts at the vertex with the most neighbours, then
    attaches every outside neighbour of the tree vertex that has the most.
    The path-like one is Kruskal over the edges by their ends' summed
    degree, first taking only edges whose ends have tree degree below 2,
    then any edge that joins two components. Ties go to the lowest rank and
    to ``ends`` order.
    """
    nbrs = [[] for _ in range(n)]
    for j, (x, y) in enumerate(ends):
        nbrs[x].append((y, j))
        nbrs[y].append((x, j))
    inside = {max(range(n), key=lambda v: len(nbrs[v]))}
    bushy = []
    while len(inside) < n:
        u = max(sorted(inside), key=lambda v: sum(w not in inside for w, _ in nbrs[v]))
        for w, j in nbrs[u]:
            if w not in inside:
                inside.add(w)
                bushy.append(j)
    order = sorted(range(len(ends)), key=lambda j: len(nbrs[ends[j][0]]) + len(nbrs[ends[j][1]]))
    parent, tree_deg, path_like = list(range(n)), [0] * n, []
    for cap in (2, n):
        for j in order:
            x, y = ends[j]
            if tree_deg[x] < cap and tree_deg[y] < cap:
                rx, ry = _find(parent, x), _find(parent, y)
                if rx != ry:
                    parent[rx] = ry
                    tree_deg[x] += 1
                    tree_deg[y] += 1
                    path_like.append(j)
    return bushy, path_like


def spanning_tree_entropy_extrema(g: Graph):
    """(min, max, argmin tree, argmax tree) of entropy over all spanning trees.

    The trees are tuples of (u, v) edges, and ties resolve to the first tree
    in the order of :func:`_spanning_search`. The guards of
    :func:`_guarded_powers`, the search and the fold of :func:`_extrema` are
    the ones :func:`mst_entropy_extrema` uses; here the search is cut by
    :func:`_degree_cut` into a branch and bound. The fold starts from the
    products of :func:`_greedy_trees`, so the cut prunes from the first
    branch. Each counts as a tree just short of its greedy tree, so a tree
    as good as it still wins, and ties still go to the first extremal tree.
    """
    power = _guarded_powers(g)
    edges, ends, stops = _canonical(g.edges, g._order_key)
    n = len(power)
    products = [math.prod(map(power.__getitem__, _degrees(n, ends, t))) for t in _greedy_trees(n, ends)]
    return _extrema(g, power, edges, ends, stops, partial(_degree_cut, ends, power), (min(products), max(products)))


def minimum_spanning_tree(g: WeightedGraph) -> WeightedGraph:
    """Kruskal MST; ties broken by weight, then by the endpoints' ranks in
    ``_vertex_ranks`` order. It reads the packed rank keys and weights that
    :func:`_checked_pairs` and the weight check kept, and its tree keeps
    them too, built unchecked."""
    n = len(g.vertices)
    edges, keys, weights = g.edges, g._keys, g._weights
    # by packed rank pair, then stably by weight: the (w, rank u, rank v) order
    order = sorted(range(len(edges)), key=keys.__getitem__)
    order.sort(key=weights.__getitem__)
    parent = list(range(n))
    picked = []
    for j in order:
        a, b = divmod(keys[j], n)
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            picked.append(j)
            if len(picked) == n - 1:
                break
    if len(picked) != max(n - 1, 0):
        raise ValueError("graph is disconnected; it has no spanning tree")
    return WeightedGraph._trusted(
        g.vertices, tuple(map(edges.__getitem__, picked)), g._order_key,
        list(map(keys.__getitem__, picked)), list(map(weights.__getitem__, picked)))


def mst_entropy_extrema(g: WeightedGraph) -> tuple[float, float]:
    """Entropy extrema over every spanning tree of minimum total weight.

    A tree counts when it is a minimum spanning tree by exact weight, the
    rule of :func:`minimum_spanning_tree` and :func:`_is_mst`. The guards
    of :func:`_guarded_powers` refuse the same graphs as in the all-trees
    scope, in the same order. The edges go in Kruskal's order, so
    :func:`_spanning_search`, bounded by each weight class's stop, reaches
    the minimum trees alone; no weight is summed and no cut is needed.
    They are folded by :func:`_extrema`, as in
    :func:`spanning_tree_entropy_extrema`, with the same early stop and tree
    checks. Each winner must also pass :func:`_is_mst`, the certificate the
    plan audit uses, or RuntimeError is raised.
    """
    h = g.graph()
    power = _guarded_powers(h)
    edges, ends, stops = _canonical(g.edges, h._order_key)
    lo, hi, t_lo, t_hi = _extrema(h, power, edges, ends, stops, lambda found: lambda *branch: False)
    for tree in (t_lo, t_hi):
        if not _is_mst(g, tree):
            raise RuntimeError("the search returned a tree heavier than the minimum spanning tree")
    return lo, hi


# -------------------------------------------------------- common topologies


def ring_graph(n: int) -> Graph:
    n = _integer("vertex count", n, 3)
    verts = tuple(range(n))
    return Graph(verts, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    n = _integer("vertex count", n, 2)
    verts = tuple(range(n))
    return Graph(
        verts, tuple((i, j) for i in range(n) for j in range(i + 1, n))
    )


def star_graph(leaves: int) -> Graph:
    leaves = _integer("leaf count", leaves, 1)
    verts = tuple(range(leaves + 1))
    return Graph(verts, tuple((0, i) for i in range(1, leaves + 1)))


def path_graph(n: int) -> Graph:
    n = _integer("vertex count", n, 2)
    verts = tuple(range(n))
    return Graph(verts, tuple((i, i + 1) for i in range(n - 1)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(tuple(range(10)), tuple(outer + spokes + inner))
