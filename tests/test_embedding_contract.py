"""What ``embed_dary_tree`` promises about the rooted tree it returns.

The embedding walks the spanning tree once, breadth first from the root.
That one walk must reject an input that is not a tree, address each
retained vertex, and list each cut-off vertex in ``pruned``. The expected
children here come from rooting the tree by a separate walk in this file.
"""

import random

import pytest

from prefixcast.graphs import WeightedGraph
from prefixcast.multicast import embed_dary_tree

from oracles import random_weighted_connected


@pytest.mark.parametrize("root", [0, 3])
def test_triangle_plus_isolated_vertex_is_not_a_tree(root):
    # n - 1 edges, but they close a cycle and leave vertex 3 unreached
    g = WeightedGraph((0, 1, 2, 3), ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)))
    with pytest.raises(ValueError, match="^not a tree: graph is disconnected$"):
        embed_dary_tree(g, root, 2)


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
        addressed = set(emb.vertex_at.values())

        assert len(addressed) == len(emb.vertex_at)
        assert addressed.isdisjoint(emb.pruned)
        assert addressed | set(emb.pruned) == set(vertices)
        assert list(emb.pruned) == sorted(emb.pruned, key=_id_order)
        assert set(emb.parent) == addressed - {root}
        assert set(emb.children) == addressed

        kids = _rooted_children(tree, root)
        for v in addressed:
            assert emb.children[v] == tuple(c for _, c in kids[v][:d])
            for i, c in enumerate(emb.children[v]):
                assert emb.parent[c] == v
                assert emb.vertex_at[emb.path_of(v) + (i,)] == c
