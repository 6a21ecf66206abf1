"""Machine-speed probe: a fixed pure-Python job timed around every request.

The benchmark shares its machine with other tenants, and the speed of
Python code on it drifts by up to 1.7x within a minute, in bursts from
under a second to about a minute long. CPU time drifts with wall time, so
this is not preemption but the processor running slower. A request's time
divided by the mean time of a fixed job run just before and just after it
cancels most of the drift: on the machine this was tuned on, 20-second
medians of raw request times ranged over 36-52% of their median across a
few minutes, and of the divided times over 3-10%.

The job mixes the kinds of work the requests do, on its own data: text
lines split into tuples, indexed, sorted and rendered as JSON; a small
table sorted and rendered; and integer arithmetic in a loop. It never calls
the program under test, so a change to the program moves request times and
not the probe. Collection is off while it runs, so that its time does not
depend on the size of the harness's heap.
"""

from __future__ import annotations

import gc
import json
from time import perf_counter

# probe milliseconds at the reference speed, about its time on a quiet
# 2-vCPU Xeon; reported times are request times at that speed
REFERENCE_MS = 4.5


def _records(n):
    lines = [f"v{i * 7919 % n} v{(i * 104729 + 1) % n} {i % 97}" for i in range(n)]
    edges = []
    for line in lines:
        a, b, w = line.split()
        edges.append((a, b, float(w)))
    index = {}
    for a, b, w in edges:
        index.setdefault(a, []).append((b, w))
    order = sorted(edges, key=lambda e: (e[2], e[0], e[1]))
    rows = [{"u": a, "v": b, "w": w} for a, b, w in order[: n // 4]]
    return len(json.dumps(rows, indent=2)) + len(index)


def _table(n):
    table = {}
    for i in range(n):
        table[f"k{i * 7919 % n}"] = (i, i / 7.0)
    rows = sorted(table.items(), key=lambda kv: kv[1][1], reverse=True)
    return len(json.dumps([{"k": k, "v": round(v[1], 4)} for k, v in rows[: n // 3]]))


def _arith(n):
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        if acc & 1:
            acc ^= i
    return acc


def _job():
    return _records(500) + _table(300) + _table(300) + _arith(5000)


class SpeedProbe:
    """Times the job between requests; gives each request its scale factor."""

    def __init__(self):
        _job()  # the first call pays for bytecode and allocator warm-up
        self.samples_ms = []
        self._last_ms = None

    def _sample(self):
        """Milliseconds of two runs of the job: twice the faster run, since
        a stall of a few milliseconds says nothing about the next request."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            runs = []
            for _ in range(2):
                start = perf_counter()
                _job()
                runs.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        ms = 2 * min(runs) * 1e3
        self.samples_ms.append(ms)
        return ms

    def start(self):
        """Probe before the first timed interval."""
        self._last_ms = self._sample()

    def bracket(self):
        """Probe after a timed interval; returns the factor that turns the
        interval's time into time at the reference speed."""
        now = self._sample()
        mean = (self._last_ms + now) / 2
        self._last_ms = now
        return REFERENCE_MS / mean
