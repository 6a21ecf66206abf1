"""The JSON writer's byte check, the demo digests and the benchmark smoke, under each
interpreter.

    python3 tests/interpreters.py PYTHON [PYTHON ...]

prints one row per interpreter: how many documents ``cli.json_text`` wrote
differently from ``json.dumps(obj, indent=2)``, how many of the demos exit 0
and print the digest ``DEMO_SHA256`` pins in ``tests/test_demos_golden.py``,
and the correctness, failed share and p50 latency of a 2 s seed-1 benchmark
run of each workload in ``WORKLOADS``. It needs only the standard library,
so it runs on interpreters that have no pytest. ``python3
tests/interpreters.py --check`` runs the byte check alone under the current
interpreter.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from prefixcast.cli import Table, json_text, run  # noqa: E402

TEXT = ["", "%s", 'say "hi"', "a\nb", "\\", "é", "\U0001f600"]
SCALARS = [None, True, False, 0, -1, 2**63, -(2**70), -0.0, 0.1, 5e-324, 1e16, -1e22,
           math.nan, math.inf, -math.inf] + TEXT
DATA = ROOT / "demos" / "data"
# subcommands over the demo inputs, each written with --json
INVOCATIONS = [
    ["huffman", "--pmf", f"{DATA}/importance.pmf", "--D", "3"],
    ["assign-leaders", "--pmf", f"{DATA}/importance.pmf"],
    ["plan-multicast", "--graph", f"{DATA}/network.edges", "--root", "gw",
     "--pmf", f"{DATA}/importance.pmf", "--audit"],
    ["mst", "--graph", f"{DATA}/network.edges"],
    ["graph-entropy", "--graph", f"{DATA}/network.edges"],
    ["levels", "--graph", f"{DATA}/network.edges", "--bs", "gw"],
    ["sectors", "--positions", f"{DATA}/positions.txt", "--bs", "gw", "--K", "4"],
    ["gossip", "--graph", f"{DATA}/network.edges", "--bs", "gw", "--levels-probs", "0.9,0.7,0.5",
     "--trials", "20", "--seed", "7", "--trial-log"],
    ["fuse", "--intervals", f"{DATA}/readings.intervals", "--f", "1", "--function", "omega"],
    ["code-from-lengths", "--lengths", "1,2,3,3"],
]
WORKLOADS = ("plan", "enumerate", "gossip", "fuse")


def random_value(rng: random.Random, depth: int):
    """A scalar, a list or a dict of them, nested at most ``depth`` deep."""
    pick = rng.randrange(4 if depth else 1)
    if pick == 0:
        return rng.choice(SCALARS)
    if pick == 1:
        return [random_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    return {rng.choice(TEXT): random_value(rng, depth - 1) for _ in range(rng.randrange(4))}


def random_columns(rng: random.Random) -> dict:
    """Columns of one length, each of scalars or of scalar lists."""
    rows, columns = rng.choice((0, 1, 6)), {}
    for k in range(rng.randint(1, 4)):
        if rng.randrange(2):
            column = [rng.choice(SCALARS) for _ in range(rows)]
        else:
            column = [rng.choices(SCALARS, k=rng.randrange(4)) for _ in range(rows)]
        columns[rng.choice(TEXT) + str(k)] = column
    return columns


def byte_check(documents: int, seed: int = 0) -> list:
    """Of ``documents`` random documents, as many random tables, and the CLI
    outputs, those whose written bytes differ from ``json.dumps(...,
    indent=2)``."""
    rng, bad = random.Random(seed), []
    for _ in range(documents):
        doc = random_value(rng, 3)
        if json_text(doc) != json.dumps(doc, indent=2):
            bad.append(doc)
        columns, level = random_columns(rng), rng.randrange(4)
        records = [dict(zip(columns, row)) for row in zip(*columns.values())]
        if json_text(Table(columns), level) != json.dumps(records, indent=2).replace(
                "\n", "\n" + "  " * level):
            bad.append(columns)
    for argv in INVOCATIONS:
        out = io.StringIO()
        with redirect_stdout(out):
            code = run(argv + ["--json"])
        text = out.getvalue()[:-1]
        try:
            if code != 0 or text != json.dumps(json.loads(text), indent=2):
                bad.append(argv)
        except ValueError:  # not JSON at all
            bad.append(argv)
    return bad


def pinned_demos() -> dict:
    """``DEMO_SHA256`` of ``tests/test_demos_golden.py``, read without importing pytest."""
    tree = ast.parse((ROOT / "tests" / "test_demos_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
                "DEMO_SHA256"]:
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_demos_golden.py assigns no DEMO_SHA256")


def demos(python: str) -> tuple:
    """(passed, summary): how many demos, run as the demo golden test runs
    them, exit 0 and print their pinned digest under ``python``."""
    pinned, env = pinned_demos(), dict(os.environ, PYTHONPATH="src")
    same = 0
    for name, digest in pinned.items():
        out = subprocess.run([python, str(Path("demos") / name)], cwd=ROOT, env=env,
                             capture_output=True)
        same += not out.returncode and hashlib.sha256(out.stdout).hexdigest() == digest
    return same == len(pinned), f"demos: {same} of {len(pinned)} pinned"


def smoke(python: str, workload: str) -> tuple:
    """(passed, summary) of a 2 s seed-1 benchmark run of ``workload``."""
    out = subprocess.run([python, "perfbench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "2", "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    if out.returncode:
        return False, f"{workload}: exit {out.returncode}"
    res = json.loads(out.stdout.splitlines()[-1])
    return res["correct"] and not res["failed"], (
        f"{workload}: {'correct' if res['correct'] else 'WRONG'}, {res['failed']}/{res['attempted']}"
        f" failed, p50 {res['metrics']['latency_p50_ms']['value']:.2f} ms")


def main(argv: list) -> int:
    if argv == ["--check"]:
        bad = byte_check(2000)
        print(f"writer: {len(bad)} of {2 * 2000 + len(INVOCATIONS)} documents differ",
              *map(repr, bad[:3]), sep="\n")
        return 1 if bad else 0
    passed = True
    for python in argv:
        version = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                                 capture_output=True, text=True).stdout.strip()
        check = subprocess.run([python, __file__, "--check"], capture_output=True, text=True)
        demos_ok, shown = demos(python)
        runs = [smoke(python, workload) for workload in WORKLOADS]
        passed &= not check.returncode and demos_ok and all(ok for ok, _ in runs)
        print(" | ".join([version, (check.stdout or check.stderr).splitlines()[0], shown]
                         + [summary for _, summary in runs]), flush=True)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
