"""The edge-line reader behind parse_graph and parse_weighted_graph.

Pins what a graph file means: comments, blank and whitespace-only lines,
tabs and CRLF endings are skipped or split like spaces, vertices keep the
order of first mention (``vertex`` lines included) as strings, and each
bad line fails with its ``source:lineno:`` message.
"""

import pytest

from prefixcast.fileio import FileFormatError, parse_graph, parse_weighted_graph

GOOD = (
    "# leading comment\r\n"
    "b a 2.5   # trailing comment\r\n"
    "\t\r\n"
    "vertex z\n"
    "\n"
    "c\tb\n"
    "vertex a\n"
    "  a   d 0  \n"
    "9 10 # ids stay strings\n"
    "vertex 9\n"
)


def test_good_file_vertices_and_edges():
    g = parse_graph(GOOD, "good.edges")
    assert g.vertices == ("b", "a", "z", "c", "d", "9", "10")
    assert g.edges == (("a", "b"), ("b", "c"), ("a", "d"), ("10", "9"))

    w = parse_weighted_graph(GOOD, "good.edges")
    assert w.vertices == g.vertices
    assert w.edges == (("a", "b", 2.5), ("b", "c", 1.0), ("a", "d", 0.0), ("10", "9", 1.0))
    assert w.graph() == g


@pytest.mark.parametrize("parse", [parse_graph, parse_weighted_graph])
@pytest.mark.parametrize(
    "text, message",
    [
        ("a b\r\n# c\r\na b c d\n", "g.edges:3: expected 'u v', 'u v w' or 'vertex u', got 4 tokens"),
        ("a b\n\n\nlonely\n", "g.edges:4: expected 'u v', 'u v w' or 'vertex u', got 1 tokens"),
        ("a#b c\n", "g.edges:1: expected 'u v', 'u v w' or 'vertex u', got 1 tokens"),
        ("vertex\n", "g.edges:1: expected 'vertex u'"),
        ("a b\nvertex a b\n", "g.edges:2: expected 'vertex u'"),
        ("a b 1\n\tb c x\n", "g.edges:2: weight 'x' is not a number"),
        ("# only\n\n", "g.edges: no vertices"),
        ("a b\nb b\n", "g.edges: self-loop at 'b'"),
        ("a b\nb a\n", "g.edges: repeated edge ('b', 'a')"),
    ],
)
def test_bad_lines_name_source_and_line(parse, text, message):
    with pytest.raises(FileFormatError) as err:
        parse(text, "g.edges")
    assert str(err.value) == message


def test_weighted_reader_rejects_a_negative_weight():
    with pytest.raises(FileFormatError) as err:
        parse_weighted_graph("a b 1\nb c -2\n", "w.edges")
    assert str(err.value) == "w.edges: edge ('b', 'c') has invalid weight -2.0"
