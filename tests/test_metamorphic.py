"""Metamorphic relations of ``span-entropy``, ``plan-multicast``, ``fuse``
and ``huffman``.

A relation compares the output for an input with the output for a
transformed input, so it needs no reference answer and holds at sizes no
oracle reaches. Every input is seeded.

- Both ``span-entropy`` scopes give an identical result section after the
  graph file's lines are shuffled and about half its edges written as
  ``v u w``, after every weight is multiplied by 2**-3 or 2**5 (exact for
  floats), and after the vertices are renamed in a way that keeps their
  ``_vertex_ranks`` order, up to that renaming.
- ``span-entropy --msts-only`` is unchanged when an edge heavier than every
  other edge is added: no minimum spanning tree can take it. Weights near
  2**53, with the new edge one float above the heaviest, make a tree that
  takes it sum to the minimum's total in floats, though it is heavier.
- ``plan-multicast --audit --json``, at the ``plan`` benchmark's small
  sizes, gives an identical result section after the line shuffle and
  flip, and after the weight scaling, except that ``mst_weight`` scales by
  the same factor. After the pmf's lines are shuffled, each label keeps its
  depth and every field but the leader table is identical, ``expected_depth``
  to the bit; the paths within a depth move, since canonical assignment
  follows input label order. The importances are distinct, because Huffman
  breaks a tie between equal probabilities by input order.
- ``huffman`` gives each label the same length after its pmf's lines are
  permuted, again with distinct probabilities, and every field but the code
  table is identical.
- ``fuse``, on the benchmark's shape of intervals with n/10 outliers, gives
  an identical result section after its lines are shuffled. A zero endpoint
  takes the sign of its first occurrence in input order, by design, so
  these inputs have none.

``gossip`` has no line-order relation: its draws are keyed by a vertex's
position in the graph file's order of first mention, by design, so
reordering the lines changes which draw each vertex gets.
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


def _json(*argv):
    """The result section of one in-process ``--json`` run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([*argv, "--json"])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())["result"]


def _result(tmp_path, lines, *args):
    """The result section of one ``--json`` run on the graph ``lines``."""
    path = tmp_path / "g.edges"
    path.write_text("".join(f"{u} {v} {w!r}\n" for u, v, w in lines))
    return _json(*args[:1], "--graph", str(path), *args[1:])


def _without(result, key):
    return {k: v for k, v in result.items() if k != key}


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
    return edges, "".join(_pmf_lines([rng.randint(90, 110) for _ in range(leaders)]))


def _pmf_lines(raw):
    """One ``L<i> p`` line per weight in ``raw``, each p in proportion to it."""
    total = sum(raw)
    probs = [r / total for r in raw]
    # a left-to-right fold: sum() of floats is compensated from CPython 3.12 on
    probs[-1] = 1.0 - functools.reduce(operator.add, probs[:-1], 0.0)
    return [f"L{i} {p!r}\n" for i, p in enumerate(probs)]


def _distinct(pmf_lines):
    return len({line.split()[1] for line in pmf_lines}) == len(pmf_lines)


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


@pytest.mark.parametrize("d, n", [(2, 1023), (3, 1093)])
def test_plan_keeps_each_depth_under_a_pmf_shuffle(d, n, tmp_path):
    rng = random.Random(5200 + d)
    edges, _ = _plan_inputs(rng, d, n)
    pmf = _pmf_lines(rng.sample(range(9000, 11000), 250))
    assert _distinct(pmf)

    def plan(lines):
        (tmp_path / "p.pmf").write_text("".join(lines))
        result = _result(
            tmp_path, edges, "plan-multicast", "--pmf", str(tmp_path / "p.pmf"),
            "--root", "v0", "--D", str(d),
        )
        return _without(result, "leaders"), {r["label"]: len(r["path"]) for r in result["leaders"]}

    want = plan(pmf)
    for _ in range(2):
        rng.shuffle(pmf)
        assert plan(pmf) == want


def test_huffman_keeps_each_length_under_a_label_permutation(tmp_path):
    path = tmp_path / "p.pmf"
    for seed, d in itertools.product(range(3), (2, 3, 5)):
        rng = random.Random(5300 + 10 * seed + d)
        # weights spread over three decades, so lengths differ widely
        pmf = _pmf_lines(rng.sample(range(1, 1000), rng.randint(2, 300)))
        assert _distinct(pmf)

        def code(lines):
            path.write_text("".join(lines))
            result = _json("huffman", "--pmf", str(path), "--D", str(d))
            return _without(result, "code"), {r["label"]: r["length"] for r in result["code"]}

        want = code(pmf)
        rng.shuffle(pmf)
        assert code(pmf) == want


def _fuse_rows(rng, n):
    """The ``fuse`` benchmark's shape: n - f intervals about 0, f = n/10 outliers."""
    f = n // 10
    rows = [(-rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)) for _ in range(n - f)]
    for _ in range(f):
        centre = rng.choice((-1, 1)) * rng.uniform(2.0, 10.0)
        half = rng.uniform(0.05, 1.0)
        rows.append((centre - half, centre + half))
    rng.shuffle(rows)
    return [f"{lo!r} {hi!r}\n" for lo, hi in rows], f


@pytest.mark.parametrize("function", ["compare", "omega"])
def test_fuse_keeps_its_result_under_a_line_shuffle(function, tmp_path):
    path = tmp_path / "i.intervals"
    for n in (500, 1000):
        rng = random.Random(5400 + n)
        rows, f = _fuse_rows(rng, n)

        def fuse(lines):
            path.write_text("".join(lines))
            return _json("fuse", "--intervals", str(path), "--f", str(f), "--function", function)

        want = fuse(rows)
        for _ in range(2):
            rng.shuffle(rows)
            assert fuse(rows) == want
