"""Reference answers for the benchmark's checks, independent of ``src/``.

Nothing here imports prefixcast. Each routine recomputes what a request's
output must contain by a direct method: subset enumeration for spanning
trees, counting at every breakpoint for interval overlap, and a
level-by-level gossip simulator built from the keying that the ``gossip``
module docstring documents.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

MASK64 = (1 << 64) - 1


# ------------------------------------------------------------------ graphs


def vertex_order(edges):
    """Vertices in order of first appearance, as the edge-list parser reads them."""
    seen = {}
    for u, v, *_ in edges:
        seen.setdefault(u, len(seen))
        seen.setdefault(v, len(seen))
    return list(seen)


def adjacency(vertices, edges):
    adj = {v: [] for v in vertices}
    for u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_levels(adj, root):
    level = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def tree_count(vertices, edges):
    """Spanning-tree count from the Laplacian minor, by exact rational elimination."""
    idx = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for u, v, *_ in edges:
        a, b = idx[u], idx[v]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    m = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for k in range(n - 1):
        pivot = next((i for i in range(k, n - 1) if m[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n - 1):
            factor = m[i][k] / m[k][k]
            if factor:
                for j in range(k, n - 1):
                    m[i][j] -= factor * m[k][j]
    return int(det)


def degree_entropy(vertices, edges):
    """Shannon entropy in bits of deg(v) / total degree."""
    deg = dict.fromkeys(vertices, 0)
    for u, v, *_ in edges:
        deg[u] += 1
        deg[v] += 1
    total = sum(deg.values())
    return -sum(d / total * math.log2(d / total) for d in deg.values() if d)


def is_spanning_tree(vertices, edges):
    if len(edges) != len(vertices) - 1:
        return False
    parent = {v: v for v in vertices}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, *_ in edges:
        if u not in parent or v not in parent:
            return False
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def spanning_tree_summary(vertices, edges):
    """Every spanning tree by subset enumeration, reduced to what the checks need.

    ``edges`` are (u, v, weight) triples. Returns the tree count, the entropy
    extrema over all trees, the minimum total weight, the number of trees
    of that weight and the entropy extrema over them.
    """
    trees = []
    for subset in combinations(edges, len(vertices) - 1):
        if is_spanning_tree(vertices, subset):
            trees.append(
                (sum(w for _, _, w in subset), degree_entropy(vertices, subset))
            )
    best = min(w for w, _ in trees)
    mst_h = [h for w, h in trees if w == best]
    return {
        "trees": len(trees),
        "min_entropy": min(h for _, h in trees),
        "max_entropy": max(h for _, h in trees),
        "mst_weight": best,
        "msts": len(mst_h),
        "mst_min_entropy": min(mst_h),
        "mst_max_entropy": max(mst_h),
    }


# ---------------------------------------------------------- prefix codes


def entropy_base(probs, d):
    return -sum(p * math.log(p) for p in probs if p > 0) / math.log(d)


def prefix_free(paths):
    """True when no digit string is a prefix of another (sorted neighbours suffice)."""
    ordered = sorted(paths)
    return all(not b.startswith(a) for a, b in zip(ordered, ordered[1:]))


# ------------------------------------------------------------------ gossip


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


class GossipReference:
    """Level-by-level gossip on one network, keyed like the library's draws.

    Each decision reads splitmix64 chained over (seed, trial, kind, index):
    kind 0 is a node's forwarding gate with index = vertex position, kind 1
    a directed link attempt with index = sender position * n + receiver
    position. A node accepts only from the level above, so a trial is the
    closure over levels of "some fired neighbour one level up reached me
    and my gate opened", and transmissions count every target of every
    node that fired.
    """

    def __init__(self, edges, base_station, probs, q):
        self.vertices = vertex_order(edges)
        self.pos = {v: i for i, v in enumerate(self.vertices)}
        adj = adjacency(self.vertices, edges)
        self.level = bfs_levels(adj, base_station)
        deepest = max(self.level.values())
        self.source = min(v for v in self.vertices if self.level[v] == deepest)
        self.adj = adj
        self.down = {
            v: [w for w in adj[v] if self.level[w] < self.level[v]] for v in adj
        }
        self.bs = base_station
        self.probs = probs
        self.ok_p = 1.0 - q

    def trial(self, seed, t):
        """(delivered, transmissions) of one trial."""
        n = len(self.vertices)
        pos, level, probs = self.pos, self.level, self.probs
        z = splitmix64((splitmix64(seed & MASK64) + t) & MASK64)
        gate_key = splitmix64(z)
        link_key = splitmix64((z + 1) & MASK64)

        def fires(v):
            draw = splitmix64((gate_key + pos[v]) & MASK64) / 2.0**64
            return draw < probs[level[v] - 1]

        src = self.source
        if not fires(src):
            return False, 0
        tx = len(self.adj[src])
        front = [src]
        for lvl in range(level[src] - 1, -1, -1):
            reached = set()
            for u in front:
                base = pos[u] * n
                for v in self.down[u]:
                    if v in reached:
                        continue
                    draw = splitmix64((link_key + base + pos[v]) & MASK64) / 2.0**64
                    if draw < self.ok_p:
                        reached.add(v)
            if lvl == 0:
                return self.bs in reached, tx
            front = [v for v in reached if fires(v)]
            if not front:
                return False, tx
            tx += sum(len(self.down[v]) for v in front)
        return False, tx

    def run(self, seed, trials):
        return [self.trial(seed, t) for t in range(trials)]


# ------------------------------------------------------------------ fusion


def fusion_summary(intervals, f):
    """Overlap counts at and between breakpoints, and M, N, S, by direct counting."""
    n = len(intervals)
    xs = sorted({x for iv in intervals for x in iv})
    at = [sum(1 for lo, hi in intervals if lo <= x <= hi) for x in xs]
    between = [
        sum(1 for lo, hi in intervals if lo <= a and hi >= b)
        for a, b in zip(xs, xs[1:])
    ]
    quorum = n - f
    agree = [x for x, c in zip(xs, at) if c >= quorum]
    m = (agree[0], agree[-1]) if agree else None
    s = (
        sorted((lo for lo, _ in intervals), reverse=True)[f],
        sorted(hi for _, hi in intervals)[f],
    )
    return {
        "breakpoints": xs,
        "at_points": at,
        "between": between,
        "m": m,
        "s": s,
    }
