"""The command line's worst cases, one row each, run under a 60 s timeout: unit-weight
K8, where all 262144 spanning trees are minimal, in both scopes (each stops at the
first path and star in search order, so neither visits every tree); K(3,6), 8748
trees with no star and no Hamiltonian path, so neither early stop fires and the
all-trees scope proves both extrema; a relax refusal that tries every shift down a
4000-vertex path and must name its first leader; 200000 quarter-grid intervals fused
under omega and compare, where a quadratic overlap count would run for hours; an
audited plan on a seeded 32767-vertex complete binary carrier (weights 1-9, about
1.5n chords of weight 10-99) with 8191 uniform leaders, about 2 s, where a quadratic
step in Kruskal or the embedding would time out; and that file with its first edge
repeated, reversed, on a last line, which the one endpoint check must refuse in one
stderr line naming that line's pair. Each row runs ``python -m prefixcast.cli`` on
this tree's ``src`` in a temp dir of the seeded inputs. Without pytest, run them by
``PYTHONPATH=src python tests/test_worst_cases.py``.
"""

import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
rng, wide = random.Random(200000), []
for i in range(200000):
    lo, hi = -rng.randint(0, 100000) / 4, rng.randint(0, 100000) / 4
    if i % 400 == 0:  # 500 outlying points, fewer than f
        lo = hi = 30000 + rng.randint(0, 8) / 4
    wide.append(f"{lo!r} {hi!r}\n")
rng, n = random.Random(32767), 32767
edges = {(i, (i - 1) // 2): rng.randint(1, 9) for i in range(1, n)}
while len(edges) < n - 1 + 3 * n // 2:
    u, v = sorted(rng.sample(range(n), 2), reverse=True)
    if (u, v) not in edges:
        edges[u, v] = rng.randint(10, 99)
edges = list(edges.items())
rng.shuffle(edges)
carrier = "".join(f"v{u} v{v} {w}\n" for (u, v), w in edges)
U, V, W = carrier.split("\n", 1)[0].split()
INPUTS = {
    "k8.edges": "".join(f"{u} {v} 1\n" for u in range(8) for v in range(u + 1, 8)),
    "k36.edges": "".join(f"a{i} b{j}\n" for i in range(3) for j in range(6)),
    "path.edges": "".join(f"v{i} v{i + 1} {i % 7 + 1}\n" for i in range(3999)),
    **{f"uniform{k}.pmf": "".join(f"L{i} {1 / k!r}\n" for i in range(k)) for k in (50, 8191)},
    "wide.intervals": "".join(wide),
    "carrier32767.edges": carrier,
    "repeat32767.edges": carrier + f"{V} {U} {W}\n",
}

PLAN = "plan-multicast --root v0 --D 2 --pmf"
# argv, exit code, texts: stdout's "last" line, whole stdout "lines", or the "end" of one stderr line
ROWS = [
    ("span-entropy --graph k8.edges --msts-only", 0, "last", "max_entropy_bits 2.950212"),
    ("span-entropy --graph k8.edges", 0, "lines", "max_entropy_bits 2.950212"),
    ("span-entropy --graph k36.edges", 0, "lines", "max_entropy_bits 3.030639"),
    (f"{PLAN} uniform50.pmf --graph path.edges --relax", 2, "end",
     "for leader 'L0'; the embedded tree cannot host this placement at arity 2"),
    ("fuse --intervals wide.intervals --f 1000 --function omega", 0, "lines", "n 200000"),
    ("fuse --intervals wide.intervals --f 1000 --function compare", 0, "lines", "n 200000", "m_equals_n true"),
    (f"{PLAN} uniform8191.pmf --graph carrier32767.edges --audit", 0, "lines", "audit_ok true"),
    (f"{PLAN} uniform8191.pmf --graph repeat32767.edges --audit", 2, "end", f"repeated edge ('{V}', '{U}')"),
]


def test_every_row():
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in INPUTS.items():
            Path(tmp, name).write_text(text)
        for argv, code, how, *texts in ROWS:
            # a run past the timeout raises TimeoutExpired, which fails the row
            p = subprocess.run([sys.executable, "-m", "prefixcast.cli", *argv.split()], cwd=tmp, env=ENV,
                               capture_output=True, text=True, timeout=60)
            out, err = p.stdout.splitlines(), p.stderr
            shown = {"last": out[-1:] == texts, "lines": set(texts) <= set(out),
                     "end": err.count("\n") == 1 and err.endswith(texts[0] + "\n")}[how]
            assert p.returncode == code and shown, f"{argv}: exit {p.returncode} {p.stdout[-200:]!r} {err!r}"


if __name__ == "__main__":
    test_every_row()
    print(f"all {len(ROWS)} rows passed")
