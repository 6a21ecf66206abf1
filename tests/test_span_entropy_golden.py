"""Byte-level pins of ``span-entropy`` stdout on 8-vertex graphs.

The digests were recorded from the enumeration that built one ``Graph`` and
one degree pmf per spanning tree and folded each scope's extrema
separately. Any faster enumeration or fold must reproduce the same stdout,
byte for byte, for both scopes, in text and ``--json``: the extrema, and
which tree is named argmin and argmax when many trees share an entropy.

Each graph is a random spanning tree plus random extra edges on vertices
``n0``..``n7``, with weights drawn from {1, 2, 3} so that many spanning trees
share the minimum weight. Lines come in shuffled order with random
endpoint order. The 16-edge graph has 2436 spanning trees and the 18-edge
graph 7105. Files are written under a temporary directory and named by
relative paths, so the manifest's flags line does not depend on where the
suite runs.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from prefixcast.cli import run

# (edge count, seed) -> {invocation suffix: sha256 of stdout}
GOLDEN = {
    (16, 2): {
        "": "b23bb993f12df4749ec96814f14ebe9880dd6ec4d346f00584ed9a30e6c388ef",
        "--json": "4b38b5b2358387f53a4c5ebae1b6ba61a4ef2c0204c9cbf724768689b23e7a21",
        "--msts-only": "4c104323b3ccf87db2d08df986bef7eb9047d43bc0e08afc023a5927a874e242",
        "--msts-only --json": "15ec986ed4d86fb0d413adfdbdda9924fd87c92df60e245ad6df82f30d9127cf",
    },
    (18, 1): {
        "": "6c6267cbccd943092bf67c2382a599d5e194671554fc26fba4292a2788f97615",
        "--json": "2cf8db2efaf9aff3cd793af93c6340c9e4c28445d0e5e921a41eabed498b8d3e",
        "--msts-only": "287547265c4dd01d0a863068504caf8a037176487783efac1fb321e481c38271",
        "--msts-only --json": "c0651f148c6365bfcd08b80cf4bc1056c283f4f20b46214e017618702a103c5a",
    },
}


def edge_lines(m, seed):
    """m ``u v w`` lines on 8 vertices forming a connected graph."""
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(8)]
    order = names[:]
    rng.shuffle(order)
    pairs = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, 8)}
    rest = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if (a, b) not in pairs]
    rng.shuffle(rest)
    pairs.update(rest[: m - 7])
    lines = []
    for a, b in sorted(pairs):
        if rng.random() < 0.5:
            a, b = b, a
        lines.append(f"{a} {b} {rng.choice((1, 2, 3))}")
    rng.shuffle(lines)
    return lines


def _stdout(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code == 0, err.getvalue()
    assert err.getvalue() == ""
    return out.getvalue()


CASES = [(size, suffix) for size, pins in GOLDEN.items() for suffix in pins]


@pytest.mark.parametrize(
    ("size", "suffix"), CASES, ids=[f"m={m} {suffix or 'text'}" for (m, _), suffix in CASES]
)
def test_span_entropy_stdout_is_byte_stable(size, suffix, tmp_path, monkeypatch):
    (tmp_path / "g.edges").write_text("\n".join(edge_lines(*size)) + "\n")
    monkeypatch.chdir(tmp_path)
    out = _stdout(["span-entropy", "--graph", "g.edges"] + suffix.split())
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[size][suffix]
    if "--json" in suffix:
        json.loads(out)
