"""What ``embed_dary_tree`` promises about the rooted tree it returns.

The embedding roots the spanning tree by one breadth-first walk from the
root. It must reject an input that is not a tree, list the children of
each retained vertex in slot order, so that descending a digit-path from
the root reaches the vertex it addresses, and list each cut-off vertex in
``pruned``. The expected children here come from rooting the tree by a
separate walk in this file.
"""

import random
from pathlib import Path

import pytest

from prefixcast.fileio import parse_pmf, parse_weighted_graph
from prefixcast.graphs import Graph, WeightedGraph
from prefixcast.multicast import embed_dary_tree, plan_cost_audit, plan_multicast

from oracles import random_weighted_connected


def _cyclic_non_trees(rng):
    """The triangle plus an isolated vertex, then seeded random graphs whose
    n - 1 edges include a cycle through random vertices, so some vertex is
    left unreached; about half the ids are strings."""
    yield (0, 1, 2, 3), [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
    for _ in range(40):
        n = rng.randint(4, 14)
        order = list(range(n))
        rng.shuffle(order)
        k = rng.randint(3, n - 1)
        pairs = {frozenset((order[i], order[(i + 1) % k])) for i in range(k)}
        rest = [frozenset((u, v)) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(rest)
        for pair in rest:
            if len(pairs) == n - 1:
                break
            pairs.add(pair)
        name = {v: str(v) if rng.random() < 0.5 else v for v in range(n)}
        edges = [(name[u], name[v], float(rng.randint(1, 4))) for u, v in map(sorted, pairs)]
        rng.shuffle(edges)
        yield tuple(name[v] for v in range(n)), edges


def test_non_tree_is_rejected_from_every_root():
    rng = random.Random(905)
    for vertices, edges in _cyclic_non_trees(rng):
        n = len(vertices)
        assert len(edges) == n - 1
        for root in vertices:
            with pytest.raises(ValueError, match="^not a tree: graph is disconnected$"):
                embed_dary_tree(WeightedGraph(vertices, tuple(edges)), root, rng.randint(2, 4))
        # the edge count is checked first, with one edge too few or too many
        present = {frozenset(e[:2]) for e in edges}
        absent = next(
            (u, v, 1.0) for u in vertices for v in vertices
            if u != v and frozenset((u, v)) not in present
        )
        for wrong in (edges[1:], edges + [absent]):
            g = WeightedGraph(vertices, tuple(wrong))
            with pytest.raises(ValueError, match=f"^not a tree: {len(wrong)} edges on {n} vertices$"):
                embed_dary_tree(g, rng.choice(vertices), 2)


def test_weighted_graph_keeps_one_graph():
    g = WeightedGraph(("a", "b", "c"), (("b", "a", 1.0), ("c", "b", 2.0)))
    assert g.graph() is g.graph()
    assert g.graph().edges == (("a", "b"), ("b", "c"))


def _id_order(v):
    """Ints by value, then strings by text."""
    return (isinstance(v, str), v)


def _rooted_children(tree, root):
    """Children of each vertex, by depth-first search from the root, in slot
    order: by edge weight, then by ``_id_order``."""
    adj = {v: [] for v in tree.vertices}
    for u, v, w in tree.edges:
        adj[u].append((w, v))
        adj[v].append((w, u))
    kids = {}
    stack = [(root, None)]
    while stack:
        v, up = stack.pop()
        kids[v] = sorted(
            ((w, c) for w, c in adj[v] if c != up), key=lambda wc: (wc[0], _id_order(wc[1]))
        )
        stack.extend((c, v) for _, c in kids[v])
    return kids


@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_tree_embedding_contract(d):
    rng = random.Random(900 + d)
    for _ in range(40):
        vertices, edges = random_weighted_connected(rng, rng.randint(1, 40), 0, (1, 4))
        # about half the ids become strings, so tied siblings mix the kinds
        name = {v: str(v) if rng.random() < 0.5 else v for v in vertices}
        vertices = tuple(name[v] for v in vertices)
        edges = tuple((name[u], name[v], w) for u, v, w in edges)
        tree = WeightedGraph(vertices, edges)
        root = rng.choice(vertices)
        emb = embed_dary_tree(tree, root, d)
        retained = set(emb.children)

        assert retained.isdisjoint(emb.pruned)
        assert retained | set(emb.pruned) == set(vertices)
        assert list(emb.pruned) == sorted(emb.pruned, key=_id_order)
        # each retained vertex but the root sits under exactly one parent
        placed = [c for v in retained for c in emb.children[v]]
        assert len(placed) == len(set(placed))
        assert set(placed) == retained - {root}

        # the digit-path and the vertices passed from the root, by this
        # file's rooting, of every vertex the arity bound keeps
        kids = _rooted_children(tree, root)
        path = {root: ((), ())}
        stack = [root]
        while stack:
            v = stack.pop()
            assert emb.children[v] == tuple(c for _, c in kids[v][:d])
            digits, route = path[v]
            for i, (_, c) in enumerate(kids[v][:d]):
                path[c] = (digits + (i,), route + (c,))
                stack.append(c)
        assert set(path) == retained
        assert emb.depth == max(len(digits) for digits, _ in path.values())
        for v, (digits, route) in path.items():
            assert emb.descend(root, digits) == route
            assert emb.descend(root, digits + (len(emb.children[v]),)) is None


def test_the_plan_path_builds_no_graph_of_its_input():
    # Kruskal and the audit read the ranks and keys the weighted graph kept;
    # its unweighted Graph is built only when asked, and equals a checked one
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    g = parse_weighted_graph((data / "network.edges").read_text(), "network.edges")
    pmf = parse_pmf((data / "importance.pmf").read_text(), "importance.pmf")
    plan = plan_multicast(g, g.vertices[0], pmf, 2, relax=True)
    assert plan_cost_audit(plan, g).ok
    assert "_graph" not in vars(g)
    h = g.graph()
    checked = Graph(g.vertices, [(u, v) for u, v, _ in g.edges])
    assert h == checked and h._order_key == checked._order_key
