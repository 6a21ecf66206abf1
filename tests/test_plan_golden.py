"""Byte-level pins of ``plan-multicast --audit --json`` output.

The demo digest was recorded from the all-pairs implementation of the
prefix checks and the linear-scan edge-weight lookup. The seeded digest was
re-recorded when the audit began to decide weight minimality by the carrier
tree's certificate at every size: on this 1023-vertex graph the only change
was ``audit_mst_weight_minimal`` going from null (too large for the old
exhaustive check) to true. Any change to how plans are built or audited
must reproduce the same stdout, byte for byte. Inputs are named by relative
paths so the manifest's flags line does not depend on where the suite runs.
"""

import functools
import hashlib
import io
import operator
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from prefixcast.cli import run

DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

DEMO_SHA256 = "9f3b64c9a0818b6a6557daec4f4045101d1c62723fe465b6a647645fdff33a96"
SEEDED_SHA256 = "63e5fefec92ce0d9b4604496acfa406e5b24864365acaac5e702d7322645b617"


def _stdout_sha256(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code == 0, err.getvalue()
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _write_seeded_inputs(directory, seed=2011, depth=9, extra=2000, leaders=250):
    """Complete binary carrier of 2**(depth+1)-1 vertices plus heavier chords.

    Carrier edges weigh 1..9 and every other edge 10..99, so the carrier is
    the unique minimum spanning tree and the Huffman code for ``leaders``
    near-uniform importances fits it at D=2.
    """
    rng = random.Random(seed)
    n = 2 ** (depth + 1) - 1
    pairs = {((v - 1) // 2, v) for v in range(1, n)}
    lines = [f"v{u} v{v} {rng.randint(1, 9)}" for u, v in sorted(pairs)]
    while len(lines) < n - 1 + extra:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in pairs:
            pairs.add((u, v))
            lines.append(f"v{u} v{v} {rng.randint(10, 99)}")
    (directory / "seeded.edges").write_text("\n".join(lines) + "\n")

    raw = [rng.randint(90, 110) for _ in range(leaders)]
    total = sum(raw)
    probs = [r / total for r in raw]
    # a left-to-right fold: sum() of floats is compensated from CPython 3.12 on
    probs[-1] = 1.0 - functools.reduce(operator.add, probs[:-1], 0.0)
    (directory / "seeded.pmf").write_text(
        "".join(f"L{i} {p!r}\n" for i, p in enumerate(probs))
    )


def test_demo_plan_audit_json_is_byte_stable(monkeypatch):
    monkeypatch.chdir(DEMO_DATA)
    argv = [
        "plan-multicast", "--graph", "network.edges", "--pmf", "importance.pmf",
        "--root", "gw", "--audit", "--json",
    ]
    assert _stdout_sha256(argv) == DEMO_SHA256


def test_seeded_thousand_vertex_plan_audit_json_is_byte_stable(tmp_path, monkeypatch):
    _write_seeded_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = [
        "plan-multicast", "--graph", "seeded.edges", "--pmf", "seeded.pmf",
        "--root", "v0", "--audit", "--json",
    ]
    assert _stdout_sha256(argv) == SEEDED_SHA256
