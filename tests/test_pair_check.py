"""The one vertex-and-pair check behind Graph, WeightedGraph and DiGraph.

Each message is pinned word for word. A repeated pair is named as the
repeating line gives it, so one file yields the same message whether it is
read as a weighted or an unweighted graph. A WeightedGraph reports a bad
weight before any endpoint error, wherever the two stand in the input.
"""

import re

import pytest

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


def test_bad_weight_is_reported_before_endpoint_errors():
    with pytest.raises(ValueError, match=r"^edge \('c', 'd'\) has invalid weight -1.0$"):
        WeightedGraph(("a", "b"), (("a", "a", 1.0), ("c", "d", -1.0)))
