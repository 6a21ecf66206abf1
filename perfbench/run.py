"""End-to-end benchmark of the prefixcast command line tool.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with a single client: the client calls
``prefixcast.cli.run(argv)`` in-process with stdout and stderr captured,
waits for the reply, and sends the next request. Inputs are files written
from ``--seed`` before the run; each output is checked against an answer
the benchmark computes without the library.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every
request twice, untraced and with spans around each layer's public
functions, checks that both outputs are byte-identical, and reports
per-layer means per request. Reported times are scaled to a reference
machine speed by a probe timed around every request (see speed.py). The
last stdout line is one JSON object; every request's raw latency, tagged
with its class, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import tracer as tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
MIN_REQUESTS = 100

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# size counter each exponent divides by, between the small and large classes
EXPONENT_SIZES = {
    "source_coding": "source_coding.symbols",
    "hierarchy": "hierarchy.leaders",
    "multicast": "multicast.vertices",
    "fusion": "fusion.intervals",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cli():
    """Fresh import of the package from source; returns prefixcast.cli."""
    for name in [m for m in sys.modules if m == "prefixcast" or m.startswith("prefixcast.")]:
        del sys.modules[name]
    cli = importlib.import_module("prefixcast.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"prefixcast imported from {cli.__file__}, not {SRC}")
    return cli


def execute(cli, argv):
    """One request: (exit code, stdout, seconds). A traceback is exit -1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:
            rc = -1
            traceback.print_exc()
        elapsed = perf_counter() - start
    if rc != 0:
        print(f"request failed (exit {rc}): {argv}\n{err.getvalue()}", file=sys.stderr)
    return rc, out.getvalue(), elapsed


def setup(workload, probe):
    """Import plus one warm-up request per class, repeated.

    Returns the package, (raw seconds, scale) of each repetition and the
    last repetition's outputs.
    """
    runs = []
    for _ in range(SETUP_REPEATS):
        probe.start()
        start = perf_counter()
        cli = import_cli()
        outputs = [execute(cli, req.argv) for req in workload.warmup()]
        elapsed = perf_counter() - start
        runs.append((elapsed, probe.bracket()))
    return cli, runs, outputs


def self_test(workload, cli, tracer, warm_outputs):
    """Good outputs pass, tampered ones fail, tracing changes no byte."""
    problems = []
    for req, (rc, out, _) in zip(workload.warmup(), warm_outputs):
        if rc != 0 or not workload.verify(req, workload.digest(req, out)):
            problems.append(f"{req.cls}: good output rejected")
            continue
        bad = workload.tamper(req, out)
        if workload.verify(req, workload.digest(req, bad)):
            problems.append(f"{req.cls}: tampered output accepted")
        tracer.install()
        try:
            _, traced, _ = execute(cli, req.argv)
        finally:
            tracer.uninstall()
        if traced != out:
            problems.append(f"{req.cls}: traced output differs")
    return problems


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _record(workload, req, i, rc, out):
    rec = {"i": i, "cls": req.cls, "size": req.size, "rc": rc}
    digest = None
    if rc == 0:
        try:
            digest = workload.digest(req, out)
        except (ValueError, KeyError, IndexError, TypeError):
            rec["rc"] = -2  # unparseable output
    rec["counts"] = dict(req.counts, **{"cli.output_bytes": len(out)})
    return rec, digest


def _quiesce():
    """Collect, then exempt the harness's own heap from later collections,
    so the program's collector walks about what a CLI process would."""
    gc.collect()
    gc.freeze()


def measure(workload, cli, probe, seconds):
    """The closed loop, untraced: for `seconds`, and on to MIN_REQUESTS
    requests (but at most twice as long) so that p90 has ten beyond it."""
    records = []
    _quiesce()
    start = perf_counter()
    i = 0
    probe.start()
    while perf_counter() - start < (seconds if i >= MIN_REQUESTS else 2 * seconds):
        req = workload.request(i)
        rc, out, elapsed = execute(cli, req.argv)
        scale = probe.bracket()
        rec, digest = _record(workload, req, i, rc, out)
        rec["latency_ms"] = elapsed * 1e3
        rec["scale"] = scale
        records.append((req, rec, digest))
        i += 1
    return records


def measure_traced(workload, cli, tracer, probe, seconds):
    """Each request untraced and traced, alternating which goes first."""
    records = []
    _quiesce()
    deadline = perf_counter() + seconds
    i = 0
    probe.start()
    while perf_counter() < deadline:
        req = workload.request(i)
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.reset_request(i)
                tracer.install()
            try:
                runs[traced] = execute(cli, req.argv)
            finally:
                if traced:
                    tracer.uninstall()
        scale = probe.bracket()
        rc, out, elapsed = runs[False]
        rec, digest = _record(workload, req, i, rc, out)
        rec["latency_ms"] = elapsed * 1e3
        rec["traced_ms"] = runs[True][2] * 1e3
        rec["scale"] = scale
        rec["identical"] = runs[True][:2] == (rc, out)
        rec["counts"].update(tracer.counts)
        for layer in tracing.LAYERS:
            # self time at reference speed, like every reported time
            rec["counts"][f"{layer}.self_s"] = tracer.self_s[layer] * scale
            rec["counts"][f"{layer}.calls"] = tracer.calls[layer]
            rec["counts"][f"{layer}.errors"] = tracer.errors[layer]
        records.append((req, rec, digest))
        i += 1
    return records


def check_all(workload, records):
    """Verify every kept digest; adds output-derived counts."""
    for req, rec, digest in records:
        ok = rec["rc"] == 0 and rec.get("identical", True)
        if ok:
            ok = bool(workload.verify(req, digest)) and workload.check_counts(req, rec["counts"])
            rec["counts"].update(workload.output_counts(req, digest))
        rec["ok"] = ok
    return [rec for _, rec, _ in records]


def end_to_end(recs, setup_runs):
    """Times at reference speed (see speed.py); memory as measured."""
    lat = [r["latency_ms"] * r["scale"] for r in recs]
    ok = sum(r["ok"] for r in recs)
    return {
        "requests_per_s": ok / (sum(lat) / 1e3),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "setup_s": statistics.median(t * scale for t, scale in setup_runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(recs):
    """Per-layer means per request over the traced run; times at reference speed."""

    def total(key, subset=recs):
        return sum(r["counts"].get(key, 0) for r in subset)

    def mean(key, subset=recs):
        return total(key, subset) / len(subset)

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def exponent(layer):
        """log(self-time ratio) / log(size ratio), large class over small,
        over the requests that ran the layer; 0 unless the sizes differ by
        at least 1.5x, since a smaller ratio makes the quotient noise."""
        ran = {
            size: [r for r in recs if r["size"] == size and r["counts"].get(f"{layer}.self_s")]
            for size in ("small", "large")
        }
        if not ran["small"] or not ran["large"]:
            return 0.0
        key = EXPONENT_SIZES[layer]
        n_s, n_l = mean(key, ran["small"]), mean(key, ran["large"])
        if n_s <= 0 or n_l < 1.5 * n_s:
            return 0.0
        t_s, t_l = mean(f"{layer}.self_s", ran["small"]), mean(f"{layer}.self_s", ran["large"])
        return math.log(t_l / t_s) / math.log(n_l / n_s)

    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.self_ms"] = (mean(f"{layer}.self_s") * 1e3, "ms")
        m[f"{layer}.calls"] = (mean(f"{layer}.calls"), "count")
        m[f"{layer}.errors"] = (mean(f"{layer}.errors"), "count")
    for key in ("cli.input_bytes", "cli.output_bytes"):
        m[key] = (mean(key), "bytes")
    for key in (
        "fileio.lines", "source_coding.symbols", "hierarchy.leaders", "graphs.edges",
        "graphs.trees_enumerated", "multicast.vertices", "multicast.pruned",
        "gossip.trials", "gossip.link_attempts", "fusion.intervals", "fusion.breakpoints",
    ):
        m[key] = (mean(key), "count")
    for layer in EXPONENT_SIZES:
        m[f"{layer}.exponent"] = (exponent(layer), "1")
    m["fileio.us_per_line"] = (
        ratio(total("fileio.self_s"), total("fileio.lines"), 1e6), "us")
    m["graphs.mst_tree_ratio"] = (
        ratio(total("graphs.useful_trees"), total("graphs.trees_enumerated")), "ratio")
    m["gossip.delivery_ratio"] = (
        ratio(total("gossip.delivered"), total("gossip.trials")), "ratio")
    m["gossip.us_per_link_attempt"] = (
        ratio(total("gossip.self_s"), total("gossip.link_attempts"), 1e6), "us")
    m["trace.overhead_ratio"] = (
        ratio(sum(r["traced_ms"] for r in recs), sum(r["latency_ms"] for r in recs)),
        "ratio")
    return m


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prefixcast", "cli.py")):
        print(f"prefixcast sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probe = SpeedProbe()
        cli, setup_runs, warm = setup(workload, probe)
        tracer = tracing.Tracer()
        problems = self_test(workload, cli, tracer, warm)
        if args.trace:
            records = measure_traced(workload, cli, tracer, probe, args.seconds)
        else:
            records = measure(workload, cli, probe, args.seconds)
        recs = check_all(workload, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r["ok"] for r in recs)
    if args.trace:
        metrics = per_layer(recs)
    else:
        units = END_TO_END_UNITS
        metrics = {k: (v, units[k]) for k, v in end_to_end(recs, setup_runs).items()}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    raw_path = os.path.join(
        HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(raw_path, "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "closed, one client, no think time",
            "environment": environment(),
            "setup_runs": [{"seconds": t, "scale": sc} for t, sc in setup_runs],
            "probe_ms": probe.samples_ms,
            "self_test_problems": problems,
            "requests": recs,
            "spans": tracer.spans,
            "spans_dropped": tracer.spans_dropped,
            "result": result,
        }, fh)

    classes = {}
    for r in recs:
        classes[r["cls"]] = classes.get(r["cls"], 0) + 1
    print(f"{args.workload} seed {args.seed}: {len(recs)} requests "
          f"({', '.join(f'{k} {v}' for k, v in sorted(classes.items()))}), "
          f"{failed} failed, self-test problems: {problems or 'none'}; raw: {raw_path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
