"""Parsers for the line-oriented input formats.

All formats share the same skeleton: whitespace-separated tokens, blank
lines skipped, ``#`` starts a comment (full-line or trailing). Parse errors
carry the source name and 1-based line number. Vertex ids stay strings
exactly as written; numeric interpretation is never guessed.
"""

from __future__ import annotations

import math

from .fusion import Interval
from .graphs import DiGraph, Graph, VertexColoring, WeightedGraph
from .source_coding import CodeLengthSet, ProbabilityMassFunction


class FileFormatError(ValueError):
    """A line did not match the expected format; message names the line."""


def _rows(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


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
    pairs = []
    for lineno, tokens in _rows(text):
        if len(tokens) != 2:
            _fail(source, lineno, f"expected 'label probability', got {len(tokens)} tokens")
        pairs.append((tokens[0], _number(tokens[1], source, lineno, "probability")))
    return _build(source, "entries", pairs, ProbabilityMassFunction.from_pairs, pairs)


def parse_lengths(text: str, d: int, source: str = "<lengths>") -> CodeLengthSet:
    """One codeword length per line."""
    lengths = []
    for lineno, tokens in _rows(text):
        if len(tokens) != 1:
            _fail(source, lineno, f"expected one integer, got {len(tokens)} tokens")
        try:
            lengths.append(int(tokens[0]))
        except ValueError:
            _fail(source, lineno, f"length {tokens[0]!r} is not an integer")
    return _build(source, "lengths", lengths, CodeLengthSet, tuple(lengths), d)


def _parse_edge_lines(text: str, source: str, bare=None):
    """Shared reader: `u v`, `u v w`, and `vertex u` lines, order preserved.

    Returns the vertices in order of first mention and (u, v, w) triples,
    with w = ``bare`` on a `u v` line. Each line is split once, in one loop,
    as a graph file is the largest input any command reads.
    """
    vertices: dict = {}  # insertion-ordered set
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                _fail(source, lineno, "expected 'vertex u'")
            vertices[tokens[1]] = None
        elif len(tokens) == 3:
            u, v, w = tokens
            w = _number(w, source, lineno, "weight")
            vertices[u] = vertices[v] = None
            edges.append((u, v, w))
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
    entries = []
    for lineno, tokens in _rows(text):
        if len(tokens) != 2:
            _fail(source, lineno, f"expected 'vertex color', got {len(tokens)} tokens")
        entries.append((tokens[0], tokens[1]))
    return _build(source, "entries", entries, VertexColoring, tuple(entries))


def parse_vertex_map(text: str, source: str = "<map>") -> dict:
    """``from to`` per line; duplicate sources rejected."""
    mapping: dict = {}
    for lineno, tokens in _rows(text):
        if len(tokens) != 2:
            _fail(source, lineno, f"expected 'from to', got {len(tokens)} tokens")
        if tokens[0] in mapping:
            _fail(source, lineno, f"vertex {tokens[0]!r} mapped twice")
        mapping[tokens[0]] = tokens[1]
    return _build(source, "entries", mapping, dict, mapping)


def parse_positions(text: str, source: str = "<positions>") -> dict:
    """``vertex x y`` per line; coordinates must be finite."""
    positions: dict = {}
    for lineno, tokens in _rows(text):
        if len(tokens) != 3:
            _fail(source, lineno, f"expected 'vertex x y', got {len(tokens)} tokens")
        if tokens[0] in positions:
            _fail(source, lineno, f"vertex {tokens[0]!r} positioned twice")
        xy = tuple(_number(t, source, lineno, c) for c, t in zip("xy", tokens[1:]))
        if not all(map(math.isfinite, xy)):
            _fail(source, lineno, f"position ({tokens[1]}, {tokens[2]}) is not finite")
        positions[tokens[0]] = xy
    return _build(source, "entries", positions, dict, positions)


def parse_intervals(text: str, source: str = "<intervals>") -> tuple:
    """``lo hi`` per line; returns a tuple of Interval."""
    out = []
    for lineno, tokens in _rows(text):
        if len(tokens) != 2:
            _fail(source, lineno, f"expected 'lo hi', got {len(tokens)} tokens")
        lo = _number(tokens[0], source, lineno, "lo")
        hi = _number(tokens[1], source, lineno, "hi")
        try:
            out.append(Interval(lo, hi))
        except ValueError as err:
            _fail(source, lineno, str(err))
    return _build(source, "intervals", out, tuple, out)
