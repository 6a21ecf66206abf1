"""The one vertex-and-edge check behind Graph, WeightedGraph and DiGraph.

``graphs._checked_pairs`` checks (u, v) pairs and (u, v, w) triples alike,
in one pass that also packs each edge's ranks into the int key a
WeightedGraph keeps for Kruskal; a repeat is a second edge with the same
key. Each message is pinned word for word. A repeated pair is named as the
repeating line gives it, so one file yields the same message whether it is
read as a weighted or an unweighted graph. A WeightedGraph reports a bad
weight before any endpoint error, wherever the two stand in the input, and
so does a weighted graph file. A file cannot name a vertex twice or an
unknown endpoint, since its vertices are the ids its lines mention.
"""

import re

import pytest

from prefixcast.fileio import FileFormatError, parse_weighted_graph
from prefixcast.graphs import DiGraph, Graph, WeightedGraph


def _weighted(vertices, pairs):
    return WeightedGraph(vertices, tuple((u, v, 1.0) for u, v in pairs))


@pytest.mark.parametrize("build", [Graph, _weighted], ids=["Graph", "WeightedGraph"])
@pytest.mark.parametrize(("vertices", "pairs", "message"), [
    (("a", "b", "a"), (), "duplicate vertex ids"),
    (("a", "b"), (("a", "b"), ("b", "b")), "self-loop at 'b'"),
    (("a", "b"), (("b", "c"),), "edge ('b', 'c') references unknown vertex"),
    (("a", "b", "c"), (("a", "b"), ("b", "c"), ("b", "a")), "repeated edge ('b', 'a')"),
    ((1, 2), ((2, 1), (1, 2)), "repeated edge (1, 2)"),
    # ids that tie in _vertex_ranks still orient one way: by their input position
    (("True", True), (("True", True), (True, "True")), "repeated edge (True, 'True')"),
    (("1.5", 1.5), (("1.5", 1.5), (1.5, "1.5")), "repeated edge (1.5, '1.5')"),
])
def test_edge_messages(build, vertices, pairs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(vertices, pairs)


@pytest.mark.parametrize(("vertices", "pairs", "message"), [
    (("a", "a"), (), "duplicate vertex ids"),
    (("a", "b"), (("a", "a"),), "self-loop at 'a'"),
    (("a", "b"), (("c", "a"),), "arc ('c', 'a') references unknown vertex"),
    (("a", "b"), (("a", "b"), ("a", "b")), "repeated arc ('a', 'b')"),
])
def test_arc_messages(vertices, pairs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DiGraph(vertices, pairs)


def test_arcs_keep_direction_and_edges_are_canonical():
    assert DiGraph(("b", "a"), (("b", "a"), ("a", "b"))).arcs == (("b", "a"), ("a", "b"))
    assert Graph(("b", "a"), (("b", "a"),)).edges == (("a", "b"),)
    assert WeightedGraph(("b", "a"), (("b", "a", 2),)).edges == (("a", "b", 2.0),)


# each structural fault stands before the bad weight
FAULTS = {
    "duplicate ids": (("a", "b", "a", "c", "d"), (("a", "b", 1.0),)),
    "self-loop": (("a", "b", "c", "d"), (("a", "a", 1.0),)),
    "unknown endpoint": (("a", "b", "c", "d"), (("a", "z", 1.0),)),
    "repeat": (("a", "b", "c", "d"), (("a", "b", 1.0), ("b", "a", 2.0))),
}
BAD_WEIGHTS = [(-1.0, "-1.0"), (float("nan"), "nan"), (float("inf"), "inf")]


@pytest.mark.parametrize(("weight", "shown"), BAD_WEIGHTS, ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("fault", FAULTS)
def test_bad_weight_is_reported_before_endpoint_errors(fault, weight, shown):
    vertices, edges = FAULTS[fault]
    with pytest.raises(ValueError, match="^(duplicate|self-loop|edge .* references|repeated)"):
        WeightedGraph(vertices, edges)
    message = f"edge ('c', 'd') has invalid weight {shown}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WeightedGraph(vertices, (*edges, ("c", "d", weight)))


@pytest.mark.parametrize(("token", "message"), [
    ("-1", "w.edges: edge ('c', 'd') has invalid weight -1.0"),
    ("nan", "w.edges: edge ('c', 'd') has invalid weight nan"),
    ("inf", "w.edges: edge ('c', 'd') has invalid weight inf"),
    ("x", "w.edges:{line}: weight 'x' is not a number"),
], ids=["negative", "nan", "inf", "not a number"])
@pytest.mark.parametrize("fault", ["self-loop", "repeat"])
def test_bad_weight_in_a_file_is_reported_before_endpoint_errors(fault, token, message):
    _, edges = FAULTS[fault]
    lines = [f"{u} {v} {w:g}" for u, v, w in edges]
    with pytest.raises(FileFormatError, match="^w.edges: (self-loop|repeated)"):
        parse_weighted_graph("\n".join(lines) + "\n", "w.edges")
    lines.append(f"c d {token}")
    with pytest.raises(FileFormatError, match=f"^{re.escape(message.format(line=len(lines)))}$"):
        parse_weighted_graph("\n".join(lines) + "\n", "w.edges")
