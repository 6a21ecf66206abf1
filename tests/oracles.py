"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the library's own algorithms: optimal
code lengths come from exhaustive enumeration of length multisets, interval
fusion from direct subset counting, and so on. Slow is fine; these run on
small inputs and exist so the fast implementations have something honest to
disagree with.
"""

from __future__ import annotations

from collections import Counter, deque
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, combinations_with_replacement


def kraft_holds_exact(lengths, d):
    """Integer-exact Kraft check: sum(D**(L-n_i)) <= D**L with L = max length."""
    cap = max(lengths)
    return sum(d ** (cap - n) for n in lengths) <= d**cap


def optimal_expected_length(probs, d):
    """Brute-force minimum expected length over all D-ary prefix codes.

    Enumerates every sorted multiset of lengths in 1..m for m symbols,
    keeps the Kraft-feasible ones, and pairs largest probability with
    smallest length. Any prefix code's length profile appears among the
    candidates, and the sorted pairing is optimal for a fixed multiset,
    so the minimum over candidates is the true optimum.
    """
    m = len(probs)
    if m == 1:
        return 1.0
    sorted_probs = sorted(probs, reverse=True)
    best = None
    for cand in combinations_with_replacement(range(1, m + 1), m):
        if not kraft_holds_exact(cand, d):
            continue
        cost = sum(p * n for p, n in zip(sorted_probs, cand))
        if best is None or cost < best:
            best = cost
    return best


def is_prefix_free(words):
    """Direct pairwise prefix check over digit tuples."""
    ws = list(words)
    for i, a in enumerate(ws):
        for b in ws[i + 1 :]:
            k = min(len(a), len(b))
            if a[:k] == b[:k]:
                return False
    return True


def canonical_code(lengths, d):
    """Canonical D-ary codewords for Kraft-feasible lengths, in input order.

    By integer arithmetic: taking lengths ascending, ties by position, the
    first codeword is 0 and each next is (previous + 1) * D**(growth in
    length), written as that many base-D digits.
    """
    order = sorted(range(len(lengths)), key=lambda i: (lengths[i], i))
    words = [None] * len(lengths)
    value, prev = -1, lengths[order[0]]
    for i in order:
        value = (value + 1) * d ** (lengths[i] - prev)
        prev = lengths[i]
        digits, rest = [], value
        for _ in range(prev):
            rest, digit = divmod(rest, d)
            digits.append(digit)
        words[i] = tuple(reversed(digits))
    return words


def huffman_lengths_by_selection(probs, d):
    """D-ary Huffman codeword lengths, for the symbols in input order.

    No heap: each round sorts the live nodes by (probability, creation
    order), merges the first D, and sums their probabilities left to right
    in that order. Zero-probability dummies, created after the symbols, pad
    the count to 1 modulo D-1. At most D symbols all get length 1.
    """
    m = len(probs)
    if m <= d:
        return [1] * m
    depth = [0] * m
    live = [(p, i, [i]) for i, p in enumerate(probs)]
    while (len(live) - 1) % (d - 1):
        live.append((0.0, len(live), []))
    created = len(live)
    while len(live) > 1:
        live.sort(key=lambda node: node[:2])
        taken, live = live[:d], live[d:]
        total, leaves = 0.0, []
        for p, _, below in taken:
            total += p
            leaves += below
        for i in leaves:
            depth[i] += 1
        live.append((total, created, leaves))
        created += 1
    return depth


def prefix_pairs(paths):
    """Every (i, j), i != j, with paths[i] a prefix of paths[j], by nested loops.

    Equal paths appear in both directions; pairs come in (i, j) order.
    """
    pairs = []
    for i, a in enumerate(paths):
        for j, b in enumerate(paths):
            if i != j and len(a) <= len(b) and b[: len(a)] == a:
                pairs.append((i, j))
    return pairs


def fuse_marzullo_reference(intervals, f):
    """Intersections of every (n-f)-subset, unioned by brute force.

    Returns a list of disjoint closed [lo, hi] pairs sorted by lo, or []
    when fewer than n-f intervals ever agree. Used as the oracle for the
    sweep-based implementation.
    """
    n = len(intervals)
    keep = n - f
    if keep <= 0:
        raise ValueError("f must be smaller than the number of intervals")
    pieces = []
    for subset in combinations(range(n), keep):
        lo = max(intervals[i][0] for i in subset)
        hi = min(intervals[i][1] for i in subset)
        if lo <= hi:
            pieces.append((lo, hi))
    if not pieces:
        return []
    pieces.sort()
    merged = [list(pieces[0])]
    for lo, hi in pieces[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi) for lo, hi in merged]


def overlap_count_at(intervals, x):
    """Number of closed intervals containing the point x."""
    return sum(1 for lo, hi in intervals if lo <= x <= hi)


def overlap_direct(pairs):
    """The overlap step function of closed [lo, hi] pairs, by all-pairs count.

    Returns (breakpoints, at_points, between) as tuples. Breakpoints are
    the distinct endpoints, sorted; of equal ones (``-0.0`` and ``0.0``)
    the first ``lo`` in input order is kept, else the first ``hi``.
    ``between[i]`` counts the pairs covering both ends of the open gap
    after breakpoint i.
    """
    xs = sorted({lo for lo, _ in pairs} | {hi for _, hi in pairs})
    at_points = tuple(sum(1 for lo, hi in pairs if lo <= x <= hi) for x in xs)
    between = tuple(
        sum(1 for lo, hi in pairs if lo <= a and hi >= b)
        for a, b in zip(xs, xs[1:])
    )
    return tuple(xs), at_points, between


def tsallis_degree_entropy(edges, q):
    """Tsallis entropy (1 - sum p**q) / (q - 1) of the exact degree
    distribution of an edge list, worked in 60 decimal digits and rounded once
    to a float."""
    degree = Counter(v for edge in edges for v in edge)
    total = Decimal(sum(degree.values()))
    with localcontext() as ctx:
        ctx.prec = 60
        s = sum((Decimal(d) / total) ** Decimal(q) for d in degree.values())
        return float((1 - s) / (Decimal(q) - 1))


def spanning_trees_by_subsets(vertices, edges):
    """All spanning trees via edge-subset enumeration of size n-1.

    ``edges`` is a list of (u, v) or (u, v, w) tuples. Returns a list of
    frozensets of (u, v) pairs with endpoints in input order. Connectivity
    is checked by repeated neighbor expansion, no union-find.
    """
    n = len(vertices)
    pairs = [(e[0], e[1]) for e in edges]
    trees = []
    for subset in combinations(range(len(pairs)), n - 1):
        adj = {v: set() for v in vertices}
        for i in subset:
            u, v = pairs[i]
            adj[u].add(v)
            adj[v].add(u)
        seen = {next(iter(vertices))}
        frontier = list(seen)
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) == n:
            trees.append(frozenset(pairs[i] for i in subset))
    return trees


def min_spanning_weight(vertices, edges):
    """Minimum total weight over all spanning trees, by enumeration."""
    weight = {(e[0], e[1]): e[2] for e in edges}
    best = None
    for tree in spanning_trees_by_subsets(vertices, edges):
        w = sum(weight[pair] for pair in tree)
        if best is None or w < best:
            best = w
    return best


def minimum_spanning_trees_exact(vertices, edges):
    """The spanning trees of least exact total weight, by enumeration.

    ``edges`` is a list of (u, v, w) tuples. Each tree's weights are summed
    as ``Fraction``s, so no sum rounds or overflows. Returns the trees of
    least sum in :func:`spanning_trees_by_subsets` order and form.
    """
    weight = {(u, v): Fraction(w) for u, v, w in edges}
    sums = [
        (tree, sum(weight[pair] for pair in tree))
        for tree in spanning_trees_by_subsets(vertices, edges)
    ]
    least = min(s for _, s in sums)
    return [tree for tree, s in sums if s == least]


def prim_min_spanning_weight(vertices, edges):
    """Minimum spanning tree weight by Prim's algorithm, grown from the first vertex.

    Each step scans every edge for the lightest one leaving the grown set;
    no heap, no union-find. Returns None when the graph is disconnected.
    """
    vertices = list(vertices)
    inside = {vertices[0]}
    total = 0
    while len(inside) < len(vertices):
        best = None
        for u, v, w in edges:
            if (u in inside) != (v in inside) and (best is None or w < best[0]):
                best = (w, v if u in inside else u)
        if best is None:
            return None
        total += best[0]
        inside.add(best[1])
    return total


def kruskal_edges(vertices, edges):
    """Kruskal's picks as (u, v, w) triples, in the order they are picked.

    The vertex order is rebuilt here: ints (not bools) by value, then every
    other id by its text, ids of equal text in input order. Each edge names
    its earlier vertex first, and edges are scanned by (weight, earlier
    position, later position). Components are merged by relabelling every
    member, with no union-find.
    """
    def is_int(v):
        return isinstance(v, int) and not isinstance(v, bool)

    ordered = sorted(v for v in vertices if is_int(v))
    ordered += sorted((v for v in vertices if not is_int(v)), key=str)
    position = {v: i for i, v in enumerate(ordered)}
    scan = []
    for u, v, w in edges:
        if position[v] < position[u]:
            u, v = v, u
        scan.append((float(w), position[u], position[v], u, v))
    scan.sort(key=lambda e: e[:3])
    component = {v: i for i, v in enumerate(vertices)}
    picked = []
    for w, _, _, u, v in scan:
        old, new = component[v], component[u]
        if old != new:
            for x, c in component.items():
                if c == old:
                    component[x] = new
            picked.append((u, v, w))
    return tuple(picked)


def random_weighted_connected(rng, n, extra_edges, weight_range=(1, 9)):
    """Random spanning tree plus extra edges, integer weights; always connected.

    Returns (vertices, edges) with edges as (u, v, w) triples, suitable for
    WeightedGraph construction and for the enumeration oracles above.
    """
    order = list(range(n))
    rng.shuffle(order)
    pairs = set()
    for i in range(1, n):
        j = rng.randrange(i)
        pairs.add(tuple(sorted((order[i], order[j]))))
    rest = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in pairs
    ]
    rng.shuffle(rest)
    pairs.update(rest[:extra_edges])
    lo, hi = weight_range
    edges = tuple(
        (u, v, float(rng.randint(lo, hi))) for u, v in sorted(pairs)
    )
    return tuple(range(n)), edges


def shortest_hops(vertices, edges, source):
    """Hop distances by Bellman-Ford relaxation; no BFS involved."""
    dist = {v: float("inf") for v in vertices}
    dist[source] = 0
    for _ in range(len(vertices)):
        changed = False
        for u, v in edges:
            if dist[u] + 1 < dist[v]:
                dist[v] = dist[u] + 1
                changed = True
            if dist[v] + 1 < dist[u]:
                dist[u] = dist[v] + 1
                changed = True
        if not changed:
            break
    return dist


def best_realizable_depth(available_paths, probs):
    """Minimum expected depth of any prefix-free placement on given paths.

    ``available_paths`` are digit tuples; ``probs`` the leader importances.
    For a fixed prefix-free subset of paths the cheapest pairing puts the
    largest probability on the shortest path, so only subsets need
    enumerating. Returns None when no prefix-free subset is large enough.
    """
    k = len(probs)
    sorted_probs = sorted(probs, reverse=True)
    best = None
    for subset in combinations(available_paths, k):
        ok = True
        for i, a in enumerate(subset):
            for b in subset[i + 1 :]:
                m = min(len(a), len(b))
                if a[:m] == b[:m]:
                    ok = False
        if not ok:
            continue
        depths = sorted(len(p) for p in subset)
        cost = sum(p * n for p, n in zip(sorted_probs, depths))
        if best is None or cost < best:
            best = cost
    return best


def _splitmix64(x):
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def gossip_draw(seed, trial, kind, index):
    """The documented four-stage draw chain keyed by (seed, trial, kind, index)."""
    mask = (1 << 64) - 1
    z = _splitmix64(seed & mask)
    for part in (trial, kind, index):
        z = _splitmix64((z + part) & mask)
    return z / 2.0**64


def gossip_trials_queue(
    vertices, edges, base_station, level_probs, q, seed, trials, source
):
    """Per-trial (delivered, transmissions, hops) by a FIFO queue walk.

    Levels come from ``shortest_hops``. Within a trial the source gates
    itself and broadcasts on every link; every accepted relay gates itself
    and sends to its lower-level neighbors. A node accepts only from a
    strictly higher level and only once, its hop count one more than its
    sender's. Neighbors are visited ints first, then strings; a gate reads
    draw (seed, trial, 0, position) and a link u->v draw (seed, trial, 1,
    pos(u) * n + pos(v)), positions being indices into ``vertices``.
    """
    n = len(vertices)
    pos = {v: i for i, v in enumerate(vertices)}
    level = shortest_hops(vertices, edges, base_station)
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)

    def order(v):
        if isinstance(v, int) and not isinstance(v, bool):
            return (0, v, "")
        return (1, 0, str(v))

    for v in vertices:
        adj[v].sort(key=order)

    def gate(trial, v):
        return gossip_draw(seed, trial, 0, pos[v]) < level_probs[level[v] - 1]

    results = []
    for trial in range(trials):
        if source == base_station:
            results.append((True, 0, 0))
            continue
        if not gate(trial, source):
            results.append((False, 0, None))
            continue
        transmissions = 0
        hop_of = {source: 0}
        delivered_hops = None
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if u != source and level[v] >= level[u]:
                    continue
                transmissions += 1
                if gossip_draw(seed, trial, 1, pos[u] * n + pos[v]) >= 1.0 - q:
                    continue
                if level[v] >= level[u] or v in hop_of:
                    continue
                hop_of[v] = hop_of[u] + 1
                if v == base_station:
                    if delivered_hops is None:
                        delivered_hops = hop_of[v]
                elif gate(trial, v):
                    queue.append(v)
        results.append((delivered_hops is not None, transmissions, delivered_hops))
    return results
