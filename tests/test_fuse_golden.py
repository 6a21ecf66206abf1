"""Byte-level pins of ``fuse`` stdout on large, tie-heavy interval sets.

The digests were recorded from the overlap count that scanned every
interval at every breakpoint. Any faster count must reproduce the same
stdout, byte for byte, including which of ``-0.0`` and ``0.0`` names the
zero breakpoint in ``--json``. Endpoints lie on a grid of quarters, so
many intervals share endpoints, touch, or shrink to a point; zero endpoints
carry a random sign. The n=4000 case takes seconds on a quadratic count,
so a return to one shows in the suite's run time. Files are written under a
temporary directory and named by relative paths, so the manifest's flags
line does not depend on where the suite runs.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from prefixcast.cli import run

# (n, seed) -> {invocation suffix: sha256 of stdout}
GOLDEN = {
    (1000, 11): {
        "--function omega --json": "351605b7c92a3b0fd03b49c314c79484ec7c6160d4fc2bb28ce3b6a5a111069a",
        "--function omega": "f367310a2aeac66de12b0f75b10c0f9341a4f4d1c7e4c6e0b8ea0796081bdec2",
        "--function compare --json": "8c986acccbbcd84487ca22d08c0a60ca2756fe1780233b5c847534590e41c905",
    },
    (4000, 12): {
        "--function omega --json": "95047d3592afa5bfc474e0188663ede24b9df4bf7c16c6f178a67eafc5590e0b",
        "--function omega": "1fc8a1e4cd8b7ec85d54b58f9f19175b68c3ef04c487674a07395be3885a5275",
        "--function compare --json": "87fa17bece7f330a0657e17e666caf876f1bdb3f2ffe6848296ee4451dcb78b3",
    },
}


def _signed(rng, x):
    """x, with a random sign when it is zero."""
    return rng.choice((-0.0, 0.0)) if x == 0 else x


def interval_lines(n, seed):
    """n ``lo hi`` lines: nine in ten intervals contain 0, the rest lie far out."""
    rng = random.Random(seed)
    half = n // 2
    lines = []
    for _ in range(n):
        if rng.random() < 0.1:
            lo = rng.choice((-1, 1)) * rng.randint(n, 2 * n) / 4
            hi = lo + rng.randint(0, 8) / 4
        else:
            lo = 0 if rng.random() < 0.01 else -rng.randint(0, half) / 4
            hi = 0 if rng.random() < 0.01 else rng.randint(0, half) / 4
        lines.append(f"{_signed(rng, lo)!r} {_signed(rng, hi)!r}")
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
    ("size", "suffix"), CASES, ids=[f"n={n} {suffix}" for (n, _), suffix in CASES]
)
def test_fuse_stdout_is_byte_stable(size, suffix, tmp_path, monkeypatch):
    n, seed = size
    (tmp_path / "large.intervals").write_text("\n".join(interval_lines(n, seed)) + "\n")
    monkeypatch.chdir(tmp_path)
    argv = ["fuse", "--intervals", "large.intervals", "--f", str(n // 10)]
    out = _stdout(argv + suffix.split())
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[size][suffix]
    if "--json" in suffix:
        json.loads(out)
