"""Every demo runs to completion and prints the same bytes.

Each ``demos/0*.py`` runs in its own interpreter with ``PYTHONPATH=src``,
as a reader would run it from the repository root. It must exit 0, and the
sha256 of its stdout must match the digest recorded before the graph and
multicast layers were reworked to check each graph once and walk each tree
once.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_prefix_codes.py": "dc29b610c314aca59eed482382be3222ad5e877f0e351189b1a6ffa4b4146130",
    "02_leader_hierarchy.py": "7dea4b5d6dd661d0120d0855fe0190ce602133dbb87db742d1463d487a2aa242",
    "03_graph_entropy.py": "4c5eb38efc8e0d0f8dca4ce87426ea355c22348c8bbc4b05dfc8e01b6aa86cf8",
    "04_multicast_plan.py": "d42d3820505681ac0ec6e86aeedbd578d1b76257440a2fd4443664041a54f3e9",
    "05_gossip_line.py": "f776fd5683c0d314a08324e63f4349574a75f8bfb4dd58e93f5a6c3f44d32e33",
    "06_interval_fusion.py": "a08bfc9d8d0c11b06f35cc41461216a17fac18c2532dd7a05f6410a189e75606",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("0*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_is_byte_stable(name):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(Path("demos") / name)],
        cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
