"""Graphs, degree-distribution entropy, spanning trees, and MSTs.

The entropy of a graph here is the Shannon entropy of its degree
distribution: each vertex gets probability deg(v) divided by the total
degree. Conditional entropy, mutual information against a vertex coloring,
Tsallis entropy, and Kullback-Leibler divergence between two graphs all
derive from the same distribution. Spanning-tree enumeration is exhaustive.
The matrix-tree determinant counts the trees first: a graph with more than
``TREE_BUDGET`` is refused, and the search must find exactly that many, so
a bug in either route cannot pass silently. The search tests feasibility
only when it excludes an edge that joins two components, since no other
step can lose a tree. A tree is the tuple of its edges; the entropy
extrema fold those tuples and evaluate the entropy once per distinct
degree vector. A graph is checked once, when built, and a WeightedGraph
keeps the Graph it built. Every tie follows one order, each vertex's int
rank in ``_vkey`` order, which a Graph keeps as ``_order_key``. An MST
shares its graph's ranks and checked edge triples and is not checked again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .source_coding import ProbabilityMassFunction, _entropy, shannon_entropy

ENUMERATION_GUARD = 9
# K8 (262144 trees) fits; K9 (4782969) is refused before the search
TREE_BUDGET = 500_000


class InfiniteDivergence(ValueError):
    """KL divergence is +infinity: the second pmf has a zero where the first does not."""


def _vkey(v):
    """Total order over mixed int/str vertex ids: ints first, then strings."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v, "")
    return (1, 0, str(v))


def _checked_pairs(vertices: tuple, pairs, noun: str, rank: dict | None = None) -> tuple:
    """Each pair, lower rank first when ``rank`` (vertex -> int) is given; rejects
    duplicate vertex ids, self-loops, unknown endpoints and repeats, naming a pair as given."""
    vset = set(vertices) if rank is None else rank
    if len(vset) != len(vertices):
        raise ValueError("duplicate vertex ids")
    seen = set()
    out = []
    for u, v in pairs:
        if u == v:
            raise ValueError(f"self-loop at {u!r}")
        if u not in vset or v not in vset:
            raise ValueError(f"{noun} ({u!r}, {v!r}) references unknown vertex")
        pair = (v, u) if rank is not None and rank[v] < rank[u] else (u, v)
        if pair in seen:
            raise ValueError(f"repeated {noun} ({u!r}, {v!r})")
        seen.add(pair)
        out.append(pair)
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Undirected graph: ordered vertex ids, edges without loops or repeats."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        verts = tuple(self.vertices)
        # stable: ids with equal _vkey keep their input order, so ranks are one-to-one
        order = sorted(verts, key=_vkey)
        rank = dict(zip(order, range(len(order))))
        self._set(verts, _checked_pairs(verts, self.edges, "edge", rank), rank)

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

    def has_edge(self, u, v) -> bool:
        return (u, v) in self._edge_set or (v, u) in self._edge_set


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph whose edges carry finite nonnegative weights."""

    vertices: tuple
    edges: tuple  # (u, v, w) triples

    def __post_init__(self):
        # every weight is checked before the Graph checks endpoints, loops, repeats
        pairs = []
        weights = []
        for u, v, w in self.edges:
            w = float(w)
            if not (math.isfinite(w) and w >= 0.0):
                raise ValueError(f"edge ({u!r}, {v!r}) has invalid weight {w!r}")
            pairs.append((u, v))
            weights.append(w)
        g = Graph(self.vertices, pairs)
        self._set(tuple((u, v, w) for (u, v), w in zip(g.edges, weights)), g)

    @classmethod
    def _trusted(cls, edges: tuple, g: Graph) -> WeightedGraph:
        """``g`` with its checked, oriented (u, v, w) triples, not checked again."""
        return object.__new__(cls)._set(edges, g)

    def _set(self, edges: tuple, g: Graph) -> WeightedGraph:
        self.__dict__.update(vertices=g.vertices, edges=edges, _graph=g)
        return self

    def graph(self) -> Graph:
        """The unweighted graph, built and checked along with this one."""
        return self._graph

    # built on first use: most graphs, such as a parsed input, never look up a weight
    @cached_property
    def _weight(self) -> dict:
        return {(u, v): w for u, v, w in self.edges}

    def weight_of(self, u, v) -> float:
        weight = self._weight
        try:
            return weight[u, v] if (u, v) in weight else weight[v, u]
        except KeyError:
            raise KeyError(f"no edge ({u!r}, {v!r})") from None

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
        arcs = _checked_pairs(verts, self.arcs, "arc")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "arcs", arcs)


@dataclass(frozen=True)
class VertexColoring:
    """Assignment of a color label to each vertex it mentions."""

    entries: tuple

    def __post_init__(self):
        entries = tuple(tuple(e) for e in self.entries)
        index = dict(entries)
        if len(index) != len(entries):
            raise ValueError("vertex colored twice")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_dict(cls, mapping) -> "VertexColoring":
        return cls(tuple(mapping.items()))

    def color_of(self, v):
        return self._index[v]

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
    the path it closes), so the verdict is exact, in O(E log E). A carrier
    edge that names a vertex absent from g fails it.
    """
    rank = g.graph()._order_key
    if any(u not in rank or v not in rank for u, v, _ in carrier):
        return False
    tree = {(u, v, w) if rank[u] <= rank[v] else (v, u, w) for u, v, w in carrier}
    parent = list(range(len(g.vertices)))
    joined = 0
    for e in sorted(g.edges, key=lambda e: (e[2], e not in tree)):
        ru, rv = _find(parent, rank[e[0]]), _find(parent, rank[e[1]])
        joins = ru != rv
        if joins != (e in tree):
            return False
        if joins:
            parent[ru] = rv
            joined += 1
    # joined == len(tree) only if every carrier edge is an edge of g
    return len(carrier) == len(tree) == joined == len(g.vertices) - 1


def _int_determinant(m: list) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _matrix_tree_count(g: Graph) -> int:
    """Number of spanning trees from the Laplacian minor determinant."""
    n = len(g.vertices)
    if n <= 1:
        return 1
    idx = {v: i for i, v in enumerate(g.vertices)}
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        iu, iv = idx[u], idx[v]
        lap[iu][iu] += 1
        lap[iv][iv] += 1
        lap[iu][iv] -= 1
        lap[iv][iu] -= 1
    minor = [row[1:] for row in lap[1:]]
    return _int_determinant(minor)


def _joined_later(ends: list, start: int, comp: list, a: int, b: int) -> bool:
    """True when the edges ``ends[start:]`` join components ``a`` and ``b``.

    ``comp`` labels each vertex index with its component; the scan unions
    labels and stops as soon as the sets holding ``a`` and ``b`` meet.
    """
    parent = list(range(len(comp)))
    for x, y in ends[start:]:
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


def enumerate_spanning_trees(g: Graph) -> list:
    """Every spanning tree of g as a tuple of its edges, in a deterministic order.

    Depth-first over the edges in canonical order, including an edge before
    excluding it, with ``chosen`` the edges taken so far. The invariant is
    that ``chosen`` plus the edges not yet decided contain a spanning tree,
    so every branch ends in one. Including an edge that joins two components
    keeps that edge set as it is, and excluding an edge that closes a cycle
    in ``chosen`` loses no connection, so neither is tested. Only excluding
    a joining edge is: the later edges must be at least as many as the tree
    still needs, and must join its two components in the graph contracted
    by ``chosen``. Guarded to graphs of at most ``ENUMERATION_GUARD``
    vertices. The matrix-tree count comes first: 0 means g is disconnected,
    above ``TREE_BUDGET`` the graph is refused, and otherwise the search
    must find exactly that many trees. ``Graph(g.vertices, t)`` rebuilds a
    tree as a Graph.
    """
    n = len(g.vertices)
    if n > ENUMERATION_GUARD:
        raise ValueError(
            f"{n} vertices exceeds the enumeration guard of {ENUMERATION_GUARD}"
        )
    if n <= 1:
        return [()]
    expected = _matrix_tree_count(g)
    if expected == 0:
        raise ValueError("graph is disconnected; it has no spanning tree")
    if expected > TREE_BUDGET:
        raise ValueError(
            f"graph has {expected} spanning trees, over the enumeration "
            f"budget of {TREE_BUDGET}"
        )

    rank = g._order_key
    edges = sorted(g.edges, key=lambda e: (rank[e[0]], rank[e[1]]))
    ends = [(rank[u], rank[v]) for u, v in edges]
    trees: list = []
    # (next edge, component label of each vertex, edges still needed,
    # chosen); a popped branch takes the include path to its tree and
    # pushes each exclude branch that still holds one
    stack = [(0, list(range(n)), n - 1, ())]
    while stack:
        i, comp, need, chosen = stack.pop()
        while need:
            x, y = ends[i]
            a, b = comp[x], comp[y]
            if a != b:
                if len(ends) - i > need and _joined_later(ends, i + 1, comp, a, b):
                    stack.append((i + 1, comp, need, chosen))
                comp = [a if c == b else c for c in comp]
                need -= 1
                chosen += (edges[i],)
            i += 1
        trees.append(chosen)

    if len(trees) != expected:
        raise RuntimeError(
            f"enumeration found {len(trees)} spanning trees but the "
            f"matrix-tree determinant gives {expected}"
        )
    return trees


def _entropy_extrema(vertices: tuple, trees) -> tuple:
    """(min, max, argmin, argmax) of entropy over spanning trees' edge tuples.

    Entropy comes from the degree counts by :func:`graph_entropy`'s formula,
    so the values are equal. It depends on the degree vector alone, so it is
    computed once per distinct vector and cached for this fold; equal
    vectors give equal values, so ties still resolve to the first tree. A
    graph of at most one vertex has only the empty tree, which has no
    entropy.
    """
    if len(vertices) <= 1:
        raise ValueError("spanning trees of a trivial graph have no edges")
    idx = {v: i for i, v in enumerate(vertices)}
    total = 2 * (len(idx) - 1)
    known: dict = {}
    lo = hi = arg_lo = arg_hi = None
    for t in trees:
        deg = [0] * len(idx)
        for u, v in t:
            deg[idx[u]] += 1
            deg[idx[v]] += 1
        deg = tuple(deg)
        h = known.get(deg)
        if h is None:
            h = known[deg] = _entropy((c / total for c in deg), 2.0)
        if lo is None or h < lo:
            lo, arg_lo = h, t
        if hi is None or h > hi:
            hi, arg_hi = h, t
    return lo, hi, arg_lo, arg_hi


def spanning_tree_entropy_extrema(g: Graph):
    """(min, max, argmin tree, argmax tree) of entropy over all spanning trees.

    The trees are edge tuples, as :func:`enumerate_spanning_trees` gives
    them, and ties resolve to the first tree in its order.
    """
    return _entropy_extrema(g.vertices, enumerate_spanning_trees(g))


def minimum_spanning_tree(g: WeightedGraph) -> WeightedGraph:
    """Kruskal MST; ties broken by weight, then by the endpoints' ranks; built unchecked."""
    n = len(g.vertices)
    rank = g.graph()._order_key
    # (w, rank u, rank v) is unique per edge, so e itself is never compared
    order = sorted([(e[2], rank[e[0]], rank[e[1]], e) for e in g.edges])
    parent = list(range(n))
    picked = []
    for _, a, b, e in order:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            picked.append(e)
            if len(picked) == n - 1:
                break
    if len(picked) != max(n - 1, 0):
        raise ValueError("graph is disconnected; it has no spanning tree")
    tree = Graph._trusted(g.vertices, tuple(e[:2] for e in picked), rank)
    return WeightedGraph._trusted(tuple(picked), tree)


def mst_entropy_extrema(g: WeightedGraph) -> tuple[float, float]:
    """Entropy extrema over every spanning tree of minimum total weight.

    A tree counts when the fsum of its weights equals the MST's: fsum rounds
    correctly and rounding is monotone, so that is the least such sum. A
    tree whose sum overflows is heavier than any finite minimum.
    """
    trees = enumerate_spanning_trees(g.graph())
    best = minimum_spanning_tree(g).total_weight()
    weight = g._weight.__getitem__

    def lightest():
        for t in trees:
            try:
                w = math.fsum(map(weight, t))
            except OverflowError:
                continue
            if w == best:
                yield t

    lo, hi, _, _ = _entropy_extrema(g.vertices, lightest())
    return lo, hi


# -------------------------------------------------------- common topologies


def ring_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a ring needs at least 3 vertices")
    verts = tuple(range(n))
    return Graph(verts, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("a complete graph needs at least 2 vertices")
    verts = tuple(range(n))
    return Graph(
        verts, tuple((i, j) for i in range(n) for j in range(i + 1, n))
    )


def star_graph(leaves: int) -> Graph:
    if leaves < 1:
        raise ValueError("a star needs at least 1 leaf")
    verts = tuple(range(leaves + 1))
    return Graph(verts, tuple((0, i) for i in range(1, leaves + 1)))


def path_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("a path needs at least 2 vertices")
    verts = tuple(range(n))
    return Graph(verts, tuple((i, i + 1) for i in range(n - 1)))


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(tuple(range(10)), tuple(outer + spokes + inner))
