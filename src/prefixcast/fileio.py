"""Parsers for the line-oriented input formats.

All formats share one skeleton, read by one reader, :func:`_rows`: whitespace-
separated tokens, blank lines skipped, ``#`` starts a comment (full-line or
trailing). Parse errors carry the source name and 1-based line number. Vertex
ids stay strings exactly as written; numeric interpretation is never guessed.
"""

from __future__ import annotations

import math
from operator import itemgetter

from .fusion import _endpoints
from .graphs import DiGraph, Graph, VertexColoring, WeightedGraph
from .source_coding import CodeLengthSet, ProbabilityMassFunction


class FileFormatError(ValueError):
    """A line did not match the expected format; message names the line."""


def _rows(text: str, source: str, width: int | None = None, shape: str = ""):
    """``(lineno, tokens)`` per line with a token, comment cut; given a ``width``,
    a row of another count fails, in line order, as ``expected {shape}, got N tokens``.
    A graph file, the largest input, is split and filtered in C, with no loop here."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = filter(itemgetter(1), enumerate(map(str.split, lines), start=1))
    if width is None:
        return rows
    return (r if len(r[1]) == width else _fail(source, r[0], f"expected {shape}, got {len(r[1])} tokens")
            for r in rows)


def _fail(source: str, lineno: int, message: str):
    raise FileFormatError(f"{source}:{lineno}: {message}")


def _number(token: str, source: str, lineno: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        _fail(source, lineno, f"{what} {token!r} is not a number")


def _build(source: str, what: str, items, make, *args):
    """``make(*args)``, failing with ``source`` named if ``items`` is empty
    ("no ``what``") or ``make`` raises ``ValueError``."""
    if not items:
        raise FileFormatError(f"{source}: no {what}")
    try:
        return make(*args)
    except ValueError as err:
        raise FileFormatError(f"{source}: {err}") from err


def parse_pmf(text: str, source: str = "<pmf>") -> ProbabilityMassFunction:
    """``label probability`` per line."""
    pairs = [(tokens[0], _number(tokens[1], source, lineno, "probability"))
             for lineno, tokens in _rows(text, source, 2, "'label probability'")]
    return _build(source, "entries", pairs, ProbabilityMassFunction.from_pairs, pairs)


def parse_lengths(text: str, d: int, source: str = "<lengths>") -> CodeLengthSet:
    """One codeword length per line."""
    lengths = []
    for lineno, tokens in _rows(text, source, 1, "one integer"):
        try:
            lengths.append(int(tokens[0]))
        except ValueError:
            _fail(source, lineno, f"length {tokens[0]!r} is not an integer")
    return _build(source, "lengths", lengths, CodeLengthSet, tuple(lengths), d)


def _parse_edge_lines(text: str, source: str, bare=None):
    """The rows of every graph format: `u v`, `u v w` and `vertex u`, in order.

    Returns the vertices in order of first mention and (u, v, w) triples,
    with w = ``bare`` on a `u v` line.
    """
    vertices: dict = {}  # insertion-ordered set
    edges = []
    # the `u v w` row, the most common, is tested first
    for lineno, tokens in _rows(text, source):
        if len(tokens) == 3 and tokens[0] != "vertex":
            u, v, w = tokens
            try:
                w = float(w)
            except ValueError:
                _fail(source, lineno, f"weight {w!r} is not a number")
            vertices[u] = vertices[v] = None
            edges.append((u, v, w))
        elif tokens[0] == "vertex":
            if len(tokens) != 2:
                _fail(source, lineno, "expected 'vertex u'")
            vertices[tokens[1]] = None
        elif len(tokens) == 2:
            u, v = tokens
            vertices[u] = vertices[v] = None
            edges.append((u, v, bare))
        else:
            _fail(source, lineno, f"expected 'u v', 'u v w' or 'vertex u', got {len(tokens)} tokens")
    return tuple(vertices), edges


def parse_graph(text: str, source: str = "<graph>") -> Graph:
    vertices, edges = _parse_edge_lines(text, source)
    arcs = tuple((u, v) for u, v, _ in edges)
    return _build(source, "vertices", vertices, Graph, vertices, arcs)


def parse_weighted_graph(text: str, source: str = "<graph>") -> WeightedGraph:
    """Weighted variant; bare `u v` lines default to weight 1 (hop count)."""
    vertices, edges = _parse_edge_lines(text, source, 1.0)
    return _build(source, "vertices", vertices, WeightedGraph, vertices, edges)


def parse_digraph(text: str, source: str = "<digraph>") -> DiGraph:
    vertices, edges = _parse_edge_lines(text, source)
    arcs = tuple((u, v) for u, v, _ in edges)
    return _build(source, "vertices", vertices, DiGraph, vertices, arcs)


def parse_coloring(text: str, source: str = "<coloring>") -> VertexColoring:
    """``vertex color`` per line."""
    entries = [tuple(tokens) for _, tokens in _rows(text, source, 2, "'vertex color'")]
    return _build(source, "entries", entries, VertexColoring, tuple(entries))


def parse_vertex_map(text: str, source: str = "<map>") -> dict:
    """``from to`` per line; duplicate sources rejected."""
    mapping: dict = {}
    for lineno, tokens in _rows(text, source, 2, "'from to'"):
        if tokens[0] in mapping:
            _fail(source, lineno, f"vertex {tokens[0]!r} mapped twice")
        mapping[tokens[0]] = tokens[1]
    return _build(source, "entries", mapping, dict, mapping)


def parse_positions(text: str, source: str = "<positions>") -> dict:
    """``vertex x y`` per line; coordinates must be finite."""
    positions: dict = {}
    for lineno, tokens in _rows(text, source, 3, "'vertex x y'"):
        if tokens[0] in positions:
            _fail(source, lineno, f"vertex {tokens[0]!r} positioned twice")
        xy = tuple(_number(t, source, lineno, c) for c, t in zip("xy", tokens[1:]))
        if not all(map(math.isfinite, xy)):
            _fail(source, lineno, f"position ({tokens[1]}, {tokens[2]}) is not finite")
        positions[tokens[0]] = xy
    return _build(source, "entries", positions, dict, positions)


def parse_intervals(text: str, source: str = "<intervals>") -> tuple:
    """``lo hi`` per line; returns the checked ``(lo, hi)`` float pairs, in
    line order, which an ``IntervalSet`` takes as its two columns."""
    pairs = []
    for lineno, (lo, hi) in _rows(text, source, 2, "'lo hi'"):
        try:
            pairs.append(_endpoints(lo, hi))
        except ValueError as err:  # a token that is no number is named first
            _number(lo, source, lineno, "lo")
            _number(hi, source, lineno, "hi")
            _fail(source, lineno, str(err))
    return _build(source, "intervals", pairs, tuple, pairs)
