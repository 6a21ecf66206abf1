"""Metamorphic relations of ``span-entropy`` and ``plan-multicast``.

A relation compares the output for an input with the output for a
transformed input, so it needs no reference answer and holds at sizes no
oracle reaches. Every input is seeded.

- Both ``span-entropy`` scopes give an identical result section after the
  graph file's lines are shuffled and about half its edges written as
  ``v u w``, after every weight is multiplied by 2**-3 or 2**5 (exact for
  floats), and after the vertices are renamed in a way that keeps their
  ``_vkey`` order, up to that renaming.
- ``span-entropy --msts-only`` is unchanged when an edge heavier than every
  other edge is added: no minimum spanning tree can take it. Weights near
  2**53, with the new edge one float above the heaviest, make a tree that
  takes it sum to the minimum's total in floats, though it is heavier.
- ``plan-multicast --audit --json``, at the ``plan`` benchmark's small
  sizes, gives an identical result section after the line shuffle and
  flip, and after the weight scaling, except that ``mst_weight`` scales by
  the same factor.
"""

import functools
import io
import itertools
import json
import math
import operator
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from prefixcast.cli import run

TENTHS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 1.0, 1.1)

# each forces a weight pattern: the enumerate benchmark's integers, tenths
# whose float sums depend on their order, and 2**53 and the float after it,
# where a sum of seven weights rounds to a multiple of 8
WEIGHT_PATTERNS = (
    lambda rng: rng.randint(1, 3),
    lambda rng: rng.choice(TENTHS),
    lambda rng: 2.0**53 + 2 * rng.randint(0, 1),
)

SCOPES = ([], ["--msts-only"])
SCALES = (2.0**-3, 2.0**5)


def _result(tmp_path, lines, *args):
    """The result section of one in-process ``--json`` run on the graph ``lines``."""
    path = tmp_path / "g.edges"
    path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in lines))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([*args[:1], "--graph", str(path), *args[1:], "--json"])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())["result"]


def _shuffled_and_flipped(rng, lines):
    lines = [(v, u, w) if rng.random() < 0.5 else (u, v, w) for u, v, w in lines]
    rng.shuffle(lines)
    return lines


def _scaled(lines, factor):
    return [(u, v, w * factor) for u, v, w in lines]


def _renamed(x, names):
    """``x`` with every string that ``names`` maps replaced, at any depth."""
    if isinstance(x, dict):
        return {k: _renamed(v, names) for k, v in x.items()}
    if isinstance(x, list):
        return [_renamed(v, names) for v in x]
    return names.get(x, x) if isinstance(x, str) else x


def _random_graph(rng, draw, m):
    """A connected graph on 8 vertices with ``m`` >= 7 edges, weighted by ``draw``."""
    names = [f"n{i}" for i in range(8)]
    order = rng.sample(names, 8)
    pairs = {frozenset((v, rng.choice(order[:i]))) for i, v in enumerate(order) if i}
    while len(pairs) < m:
        pairs.add(frozenset(rng.sample(names, 2)))
    return [(*sorted(p), draw(rng)) for p in sorted(pairs, key=sorted)]


def _span_cases():
    for seed in range(4):
        for k, draw in enumerate(WEIGHT_PATTERNS):
            rng = random.Random(4400 + 10 * seed + k)
            yield rng, _random_graph(rng, draw, rng.randint(10, 18))


def test_span_entropy_keeps_its_result_under_order_scale_and_relabel(tmp_path):
    for rng, lines in _span_cases():
        names = sorted({x for u, v, _ in lines for x in (u, v)})
        # three-digit suffixes: string order is numeric order
        fresh = [f"r{k}" for k in sorted(rng.sample(range(100, 1000), len(names)))]
        rename = dict(zip(names, fresh))
        relabelled = [(rename[u], rename[v], w) for u, v, w in lines]
        for scope in SCOPES:
            want = _result(tmp_path, lines, "span-entropy", *scope)
            got = _result(tmp_path, _shuffled_and_flipped(rng, lines), "span-entropy", *scope)
            assert got == want
            for factor in SCALES:
                assert _result(tmp_path, _scaled(lines, factor), "span-entropy", *scope) == want
            got = _result(tmp_path, relabelled, "span-entropy", *scope)
            assert got == _renamed(want, rename)


def test_msts_only_ignores_an_edge_heavier_than_every_other(tmp_path):
    # the star at c is the one tree; a tree that takes y-z weighs
    # 3 * 2**53 + 2, which rounds to the star's 3 * 2**53
    star = [("c", v, 2.0**53) for v in "xyz"]
    cases = [(star, ("y", "z"))]
    # with few edges a tree that takes the new edge often has a shape no
    # minimum tree has, so counting it would move an extremum
    sparse = []
    for seed in range(12):
        rng = random.Random(4600 + seed)
        sparse.append((rng, _random_graph(rng, WEIGHT_PATTERNS[2], rng.randint(7, 9))))
    for rng, lines in [*_span_cases(), *sparse]:
        have = {(u, v) for u, v, _ in lines}
        pairs = itertools.combinations(sorted({x for p in have for x in p}), 2)
        absent = [p for p in pairs if p not in have]
        if absent:
            cases.append((lines, rng.choice(absent)))
    assert len(cases) > 20
    for lines, (u, v) in cases:
        heavy = math.nextafter(max(w for _, _, w in lines), math.inf)
        want = _result(tmp_path, lines, "span-entropy", "--msts-only")
        assert _result(tmp_path, [*lines, (u, v, heavy)], "span-entropy", "--msts-only") == want


def _plan_inputs(rng, d, n=1023, extra=2000, leaders=250):
    """The ``plan`` benchmark's shape: a complete D-ary carrier of weights
    1..9 with chords of 10..99, and near-uniform importances."""
    edges = [(f"v{(i - 1) // d}", f"v{i}", rng.randint(1, 9)) for i in range(1, n)]
    have = {frozenset(e[:2]) for e in edges}
    while len(edges) < n - 1 + extra:
        pair = frozenset(f"v{i}" for i in rng.sample(range(n), 2))
        if pair not in have:
            have.add(pair)
            edges.append((*sorted(pair), rng.randint(10, 99)))
    raw = [rng.randint(90, 110) for _ in range(leaders)]
    total = sum(raw)
    probs = [r / total for r in raw]
    # a left-to-right fold: sum() of floats is compensated from CPython 3.12 on
    probs[-1] = 1.0 - functools.reduce(operator.add, probs[:-1], 0.0)
    return edges, "".join(f"L{i} {p!r}\n" for i, p in enumerate(probs))


@pytest.mark.parametrize("d, n", [(2, 1023), (3, 1093)])
def test_plan_keeps_its_result_under_line_order_and_weight_scale(d, n, tmp_path):
    rng = random.Random(5100 + d)
    edges, pmf = _plan_inputs(rng, d, n)
    (tmp_path / "p.pmf").write_text(pmf)
    args = ("plan-multicast", "--pmf", str(tmp_path / "p.pmf"), "--root", "v0", "--D", str(d), "--audit")
    want = _result(tmp_path, edges, *args)
    assert want["audit_ok"] is True
    assert _result(tmp_path, _shuffled_and_flipped(rng, edges), *args) == want
    for factor in SCALES:
        got = _result(tmp_path, _scaled(edges, factor), *args)
        assert got == {**want, "mst_weight": want["mst_weight"] * factor}
