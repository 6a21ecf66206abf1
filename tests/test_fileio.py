"""The line reader behind every input format.

Pins what a graph file means: comments, blank and whitespace-only lines,
tabs and CRLF endings are skipped or split like spaces, vertices keep the
order of first mention (``vertex`` lines included) as strings, and each
bad line fails with its ``source:lineno:`` message. The fixed-width
formats (pmf, lengths, coloring, vertex map, positions, intervals) are
read the same way, and each of their messages is pinned word for word.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from prefixcast import fusion
from prefixcast.cli import VALIDATION_EXIT, run
from prefixcast.fileio import (
    FileFormatError,
    parse_coloring,
    parse_graph,
    parse_intervals,
    parse_lengths,
    parse_pmf,
    parse_positions,
    parse_vertex_map,
    parse_weighted_graph,
)
from prefixcast.fusion import IntervalSet
from prefixcast.graphs import VertexColoring
from prefixcast.source_coding import CodeLengthSet, ProbabilityMassFunction

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


# ------------------------------------------------- the fixed-width formats
#
# Every other format is a fixed number of tokens per line, read the same
# way as a graph file: blank, whitespace-only and comment lines are skipped
# (so the line number still counts them), a trailing comment is cut, tabs
# split like spaces and CRLF endings are dropped.

SKIPPED = "# header\r\n\r\n   \t\r\n# another\n"  # lines 1-4 carry no row


@pytest.mark.parametrize(
    "parse, good, width, shape, value",
    [
        (parse_pmf, "a\t0.25 # a\r\nb 0.75\n", 2, "'label probability'",
         ProbabilityMassFunction((("a", 0.25), ("b", 0.75)))),
        (lambda t, s: parse_lengths(t, 2, s), "1\t# one\r\n1\n", 1, "one integer",
         CodeLengthSet((1, 1), 2)),
        (parse_coloring, "a\tred # a\r\nb blue\n", 2, "'vertex color'",
         VertexColoring((("a", "red"), ("b", "blue")))),
        (parse_vertex_map, "a\t1 # a\r\nb 2\n", 2, "'from to'", {"a": "1", "b": "2"}),
        (parse_positions, "a\t0 1.5 # a\r\nb -2\t3\n", 3, "'vertex x y'",
         {"a": (0.0, 1.5), "b": (-2.0, 3.0)}),
        (parse_intervals, "0\t1 # a\r\n-1 2.5\n", 2, "'lo hi'",
         ((0.0, 1.0), (-1.0, 2.5))),
    ],
)
def test_fixed_width_formats_read_and_count_tokens_alike(parse, good, width, shape, value):
    assert parse(SKIPPED + good, "f") == value
    # a line of no tokens is blank, not short
    for n in [n for n in (width - 1, width + 1, width + 2) if n > 0]:
        line = "\t".join(["1"] * n) + " # trailing comment\r\n"
        with pytest.raises(FileFormatError) as err:
            parse(SKIPPED + good + "\r\n# skipped\n" + line, "f")
        assert str(err.value) == f"f:9: expected {shape}, got {n} tokens"


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_pmf, "a 1\nb x\n", "p:2: probability 'x' is not a number"),
        # lines fail in order: a bad value before a bad count, and after one
        (parse_pmf, "a x\nb\n", "p:1: probability 'x' is not a number"),
        (parse_intervals, "0\n2 1\n", "p:1: expected 'lo hi', got 1 tokens"),
        (parse_pmf, "# none\n", "p: no entries"),
        (parse_pmf, "a 0.5\na 0.5\n", "p: duplicate labels in probability mass function"),
        (parse_pmf, "a 0.5\nb 0.25\n", "p: probabilities sum to 0.75, not 1"),
        (lambda t, s: parse_lengths(t, 2, s), "1\n\n1.5\n", "p:3: length '1.5' is not an integer"),
        (lambda t, s: parse_lengths(t, 2, s), "\n", "p: no lengths"),
        (lambda t, s: parse_lengths(t, 2, s), "1\n0\n", "p: codeword lengths must be positive integers, got 0"),
        (parse_coloring, "", "p: no entries"),
        (parse_coloring, "a r\na g\n", "p: vertex colored twice"),
        (parse_vertex_map, "a 1\nb 2\na 3\n", "p:3: vertex 'a' mapped twice"),
        (parse_vertex_map, "# none", "p: no entries"),
        (parse_positions, "a 0 0\na 1 1\n", "p:2: vertex 'a' positioned twice"),
        (parse_positions, "a 0 q\n", "p:1: y 'q' is not a number"),
        (parse_positions, "a inf 0\n", "p:1: position (inf, 0) is not finite"),
        (parse_positions, "\n\n", "p: no entries"),
        (parse_intervals, "0 1\nx 1\n", "p:2: lo 'x' is not a number"),
        (parse_intervals, "0 y\n", "p:1: hi 'y' is not a number"),
        (parse_intervals, "0 nan\n", "p:1: endpoints must be finite, got [0.0, nan]"),
        (parse_intervals, "2 1\n", "p:1: empty interval: lo 2.0 > hi 1.0"),
        (parse_intervals, "#\n", "p: no intervals"),
        # within a line: the count, lo, hi, then the endpoints
        (parse_intervals, "x y\n", "p:1: lo 'x' is not a number"),
        (parse_intervals, "nan y\n", "p:1: hi 'y' is not a number"),
        (parse_intervals, "inf 0\n", "p:1: endpoints must be finite, got [inf, 0.0]"),
        # two faults of different kinds on consecutive lines: the earlier is named
        (parse_intervals, "0 1\n2 1\nx 1\n", "p:2: empty interval: lo 2.0 > hi 1.0"),
        (parse_intervals, "0 1\n0 y\n2 1\n", "p:2: hi 'y' is not a number"),
        (parse_intervals, "0 1\n-inf 1\n2\n", "p:2: endpoints must be finite, got [-inf, 1.0]"),
        (parse_intervals, "0 1 2\n2 1\n", "p:1: expected 'lo hi', got 3 tokens"),
        (parse_intervals, "2 1\n0 nan\n", "p:1: empty interval: lo 2.0 > hi 1.0"),
    ],
)
def test_fixed_width_format_messages(parse, text, message):
    with pytest.raises(FileFormatError) as err:
        parse(text, "p")
    assert str(err.value) == message


@pytest.mark.parametrize("pairs, message", [
    ([(0, 1), (2, 1), (0, float("nan"))], "empty interval: lo 2.0 > hi 1.0"),
    ([(0, 1), (0, float("nan")), (2, 1)], "endpoints must be finite, got [0.0, nan]"),
    ([(3, 2), (2, 1)], "empty interval: lo 3.0 > hi 2.0"),
    ([(0, 1), ("x", 1), (2, 1)], "could not convert string to float: 'x'"),
    ([(0, 1, 99), (2, 3, "x")], "interval set item (0, 1, 99) is not a (lo, hi) pair"),
    ([(0,)], "interval set item (0,) is not a (lo, hi) pair"),
    ([(0, 1), (2, 3, 4)], "interval set item (2, 3, 4) is not a (lo, hi) pair"),
    ([(0, 1), 5, (2, 1)], "interval set item 5 is not a (lo, hi) pair"),
    ([(0, 1), (2, 1), (3,)], "empty interval: lo 2.0 > hi 1.0"),
])
def test_an_interval_set_names_its_first_bad_pair(pairs, message):
    for build in (IntervalSet, IntervalSet.from_pairs):
        with pytest.raises(ValueError) as err:
            build(pairs, 0)
        assert str(err.value) == message


def test_parsed_pairs_are_checked_without_a_walk(monkeypatch):
    # only a set whose columns fail their check walks its items
    monkeypatch.setattr(fusion, "_interval", None)
    s = IntervalSet(parse_intervals("0 1\n-1 2.5\n", "p"), 1)
    assert (s.los, s.his) == ((0.0, -1.0), (1.0, 2.5))


def test_a_long_interval_file_is_refused_at_its_last_line(tmp_path):
    p = tmp_path / "long.intervals"
    p.write_text("0 1\n" * 19999 + "3 2\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["fuse", "--intervals", str(p), "--f", "0", "--function", "m"])
    assert code == VALIDATION_EXIT == 2
    assert out.getvalue() == ""
    assert err.getvalue() == f"prefixcast fuse: {p}:20000: empty interval: lo 3.0 > hi 2.0\n"
