"""Byte-level pins of ``gossip --json`` and ``gossip --trial-log`` output.

The digests were recorded from the queue-based trial loop that kept a
per-node hop map and ran all four splitmix64 stages on every draw. Any
change to how trials are evaluated must reproduce the same stdout, byte for
byte. The graph is a 20x20 grid (38 levels) written under a temporary
directory and named by a relative path, so the manifest's flags line does
not depend on where the suite runs.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

from prefixcast.cli import run

GRID = 20
PROBS = ",".join(repr(round(0.76 - 0.005 * j, 6)) for j in range(2 * GRID - 2))

JSON_SHA256 = "a35887edbc203181d4cb45f60416c23d6852c806c0df9b4be9aac8a4b848b6a7"
TRIAL_LOG_SHA256 = "f61223a7ea3cb4c3a55f00a09c8f41c9ec9ef8619c99a4aa2cbafbf9ef48e1db"


def _stdout_sha256(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    assert code == 0, err.getvalue()
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _write_grid(directory):
    lines = []
    for x in range(GRID):
        for y in range(GRID):
            if x + 1 < GRID:
                lines.append(f"g{x}_{y} g{x + 1}_{y}")
            if y + 1 < GRID:
                lines.append(f"g{x}_{y} g{x}_{y + 1}")
    (directory / "grid.edges").write_text("\n".join(lines) + "\n")


def _argv(*extra):
    return [
        "gossip", "--graph", "grid.edges", "--bs", "g0_0",
        "--levels-probs", PROBS, "--q", "0.05", "--seed", "2011",
    ] + list(extra)


def test_grid_gossip_json_is_byte_stable(tmp_path, monkeypatch):
    _write_grid(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert _stdout_sha256(_argv("--trials", "1000", "--json")) == JSON_SHA256


def test_grid_gossip_trial_log_is_byte_stable(tmp_path, monkeypatch):
    _write_grid(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = _argv("--source", "g7_12", "--trials", "300", "--trial-log")
    assert _stdout_sha256(argv) == TRIAL_LOG_SHA256
