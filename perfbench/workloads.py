"""The four workloads: seeded inputs, request mixes and output checks.

Every workload writes its input files once, at set-up, from ``--seed``.
``request(i)`` gives the i-th request of the closed loop; the mix repeats
every four requests, three of one class and one of another, so the median
and the 90th percentile each fall inside one class. ``check`` compares a
request's output with an answer the benchmark computed without the
library; ``tamper`` corrupts a good output so the self-test can prove the
check notices.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import reference as ref


@dataclass
class Request:
    cls: str  # request class: size, topology or function
    size: str  # "small" or "large": the two size classes an exponent compares
    argv: list
    key: object  # handle to the workload's reference answer
    counts: dict = field(default_factory=dict)  # counts known from the inputs


class Workload:
    """Shared plumbing: input files and their sizes."""

    name = ""

    def __init__(self, seed, workdir):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.seed = seed
        self.workdir = workdir
        self._files = {}  # path -> (lines, bytes)

    def write(self, filename, lines):
        path = os.path.join(self.workdir, filename)
        text = "".join(line + "\n" for line in lines)
        with open(path, "w") as fh:
            fh.write(text)
        self._files[path] = (len(lines), len(text))
        return path

    def input_counts(self, *paths):
        return {
            "fileio.lines": sum(self._files[p][0] for p in paths),
            "cli.input_bytes": sum(self._files[p][1] for p in paths),
        }

    def warmup(self):
        """One request per code path (request class less its size), drawn
        from indices the measured loop does not reach."""
        seen = {}
        for i in range(10**6, 10**6 + 64):
            req = self.request(i)
            seen.setdefault(req.cls.removeprefix(req.size + "-"), req)
        return list(seen.values())

    def digest(self, req, out):
        """What must be kept of an output until it is checked."""
        return self.check(req, out)

    def verify(self, req, digest):
        return digest

    def output_counts(self, req, digest):
        return {}

    def check_counts(self, req, counts):
        """Checks on counts a traced run saw at layer boundaries."""
        return True


def _uniformish(rng, k, spread):
    w = [1.0 + spread * rng.random() for _ in range(k)]
    total = sum(w)
    return [x / total for x in w]


def _json_result(out):
    return json.loads(out)["result"]


# -------------------------------------------------------------------- plan


class Plan(Workload):
    """plan-multicast --audit --json on large weighted graphs.

    The carrier is a complete D-ary tree with weights 1..9; extra edges weigh
    10..99, so the carrier is the unique minimum spanning tree and its
    weight is known by construction. Leaders are near-uniform.
    """

    name = "plan"
    SHAPES = {  # class -> (D, vertices, extra edges, leaders)
        "small-D2": (2, 1023, 2000, 250),
        "small-D3": (3, 1093, 2000, 250),
        "large-D2": (2, 2047, 2953, 500),
    }
    POOL = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = {
            cls: [self._make(cls, k) for k in range(self.POOL)] for cls in self.SHAPES
        }

    def _make(self, cls, k):
        d, n, extra, leaders = self.SHAPES[cls]
        rng = self.rng
        names = [f"v{i}" for i in range(n)]
        parent = {names[i]: names[(i - 1) // d] for i in range(1, n)}
        edges = [(parent[v], v, rng.randint(1, 9)) for v in names[1:]]
        carrier_weight = sum(w for _, _, w in edges)
        have = {frozenset(e[:2]) for e in edges}
        while len(edges) < n - 1 + extra:
            a, b = rng.sample(names, 2)
            if frozenset((a, b)) not in have:
                have.add(frozenset((a, b)))
                edges.append((a, b, rng.randint(10, 99)))
        rng.shuffle(edges)
        probs = _uniformish(rng, leaders, 0.25)
        labels = [f"L{i}" for i in range(leaders)]
        gpath = self.write(f"{cls}-{k}.edges", [f"{a} {b} {w}" for a, b, w in edges])
        ppath = self.write(
            f"{cls}-{k}.pmf", [f"{lab} {p!r}" for lab, p in zip(labels, probs)]
        )
        answer = {
            "mst_weight": carrier_weight,
            "parent": parent,
            "probs": dict(zip(labels, probs)),
            "entropy": ref.entropy_base(probs, d),
        }
        argv = [
            "plan-multicast", "--graph", gpath, "--pmf", ppath, "--root", "v0",
            "--D", str(d), "--audit", "--json",
        ]
        return argv, answer, self.input_counts(gpath, ppath)

    def request(self, i):
        block, slot = divmod(i, 4)
        if slot == 3:
            cls = "large-D2"
            k = block
        else:
            small = block * 3 + slot
            cls = "small-D2" if small % 2 == 0 else "small-D3"
            k = small // 2
        argv, answer, counts = self.pool[cls][k % self.POOL]
        size = cls.split("-")[0]
        return Request(cls, size, argv, answer, dict(counts))

    def check(self, req, out):
        a = req.key
        r = _json_result(out)
        if not (
            r["mst_weight"] == a["mst_weight"]
            and r["secure"] is True
            and r["relaxed"] is False
            and r["audit_ok"] is True
            and r["audit_prefix_free"] is True
            and r["audit_routes_follow_tree"] is True
            and r["audit_mst_weight_minimal"] in (None, True)
            and a["entropy"] - 1e-12 <= r["expected_depth"] < a["entropy"] + 1
        ):
            return False
        leaders = r["leaders"]
        if sorted(x["label"] for x in leaders) != sorted(a["probs"]):
            return False
        paths = [x["path"] for x in leaders]
        if not ref.prefix_free(paths):
            return False
        depth = sum(a["probs"][x["label"]] * len(x["path"]) for x in leaders)
        if abs(depth - r["expected_depth"]) > 1e-9:
            return False
        for x in leaders:
            route = x["route"]
            if route[0] != "v0" or route[-1] != x["vertex"]:
                return False
            if len(route) != len(x["path"]) + 1:
                return False
            if any(a["parent"].get(v) != u for u, v in zip(route, route[1:])):
                return False
        return True

    def tamper(self, req, out):
        doc = json.loads(out)
        doc["result"]["mst_weight"] += 1
        return json.dumps(doc)


# --------------------------------------------------------------- enumerate


class Enumerate(Workload):
    """span-entropy and exhaustive plan audits on 8-vertex graphs.

    Vertex n0 has three weight-1 edges and every other edge weighs 2 or 3,
    so every minimum spanning tree keeps n0's star and a plan with D <= 3
    equal-length leaders always fits. Graphs of each class have a fixed edge
    count and are drawn until their spanning tree count lies within 3% of
    the class target, which fixes the cost of a request across seeds.
    """

    name = "enumerate"
    VERTICES = 8
    EDGES = {"small": 16, "large": 18}
    TARGET_TREES = {"small": 2500, "large": 7200}
    POOL = {"small": 8, "large": 4}
    KINDS = ("all", "msts", "plan2", "plan3")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pmf = {}
        for d, probs in ((2, (0.55, 0.45)), (3, (0.4, 0.35, 0.25))):
            labels = "ABC"[:d]
            path = self.write(f"leaders-D{d}.pmf", [f"{l} {p!r}" for l, p in zip(labels, probs)])
            self.pmf[d] = (path, ref.entropy_base(probs, d))
        self.pool = {
            size: [self._make(size, k) for k in range(self.POOL[size])]
            for size in self.POOL
        }

    def _draw_graph(self, m, target):
        rng = self.rng
        names = [f"n{i}" for i in range(self.VERTICES)]
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
        while True:
            star = rng.sample(names[1:], 3)
            edges = [("n0", v, 1) for v in star]
            rest = [p for p in pairs if not (p[0] == "n0" and p[1] in star)]
            for a, b in rng.sample(rest, m - 3):
                edges.append((a, b, rng.randint(2, 3)))
            count = ref.tree_count(names, edges)
            if abs(count - target) <= 0.03 * target:
                rng.shuffle(edges)
                return names, edges

    def _make(self, size, k):
        names, edges = self._draw_graph(self.EDGES[size], self.TARGET_TREES[size])
        path = self.write(f"{size}-{k}.edges", [f"{a} {b} {w}" for a, b, w in edges])
        summary = ref.spanning_tree_summary(names, edges)
        summary["vertices"] = names
        summary["weights"] = {frozenset((a, b)): w for a, b, w in edges}
        return path, summary

    def request(self, i):
        block, slot = divmod(i, 4)
        if slot == 3:
            size, k = "large", block
        else:
            size, k = "small", block * 3 + slot
        pool = self.pool[size]
        path, summary = pool[k % len(pool)]
        kind = self.KINDS[(k // len(pool)) % len(self.KINDS)]
        counts = self.input_counts(path)
        if kind in ("all", "msts"):
            argv = ["span-entropy", "--graph", path, "--json"]
            if kind == "msts":
                argv.insert(1, "--msts-only")
            useful = summary["trees"] if kind == "all" else summary["msts"]
        else:
            d = int(kind[-1])
            pmf, _ = self.pmf[d]
            argv = [
                "plan-multicast", "--graph", path, "--pmf", pmf, "--root", "n0",
                "--D", str(d), "--audit", "--json",
            ]
            counts = self.input_counts(path, pmf)
            useful = summary["msts"]
        counts["graphs.useful_trees"] = useful
        return Request(f"{size}-{kind}", size, argv, (kind, summary), counts)

    def check(self, req, out):
        kind, s = req.key
        r = _json_result(out)

        def close(x, y):
            return abs(x - y) <= 1e-9

        if kind == "all":
            if not (close(r["min_entropy_bits"], s["min_entropy"])
                    and close(r["max_entropy_bits"], s["max_entropy"])):
                return False
            for key, want in (("argmin_edges", s["min_entropy"]), ("argmax_edges", s["max_entropy"])):
                tree = [(e["u"], e["v"]) for e in r[key]]
                if not all(frozenset(e) in s["weights"] for e in tree):
                    return False
                if not ref.is_spanning_tree(s["vertices"], tree):
                    return False
                if not close(ref.degree_entropy(s["vertices"], tree), want):
                    return False
            return True
        if kind == "msts":
            return (
                r["scope"] == "minimum-weight-spanning-trees"
                and close(r["min_entropy_bits"], s["mst_min_entropy"])
                and close(r["max_entropy_bits"], s["mst_max_entropy"])
            )
        d = int(kind[-1])
        _, entropy = self.pmf[d]
        if not (
            len(r["leaders"]) == d
            and r["mst_weight"] == s["mst_weight"]
            and r["audit_mst_weight_minimal"] is True
            and r["audit_ok"] is True
            and r["secure"] is True
            and entropy - 1e-12 <= r["expected_depth"] < entropy + 1
        ):
            return False
        for x in r["leaders"]:
            route = x["route"]
            if len(route) != 2 or route[0] != "n0" or route[1] != x["vertex"]:
                return False
            if s["weights"].get(frozenset(route)) != 1:
                return False
        return ref.prefix_free([x["path"] for x in r["leaders"]])

    def check_counts(self, req, counts):
        """A traced request enumerates exactly the brute-force tree count."""
        enumerated = counts.get("graphs.trees_enumerated")
        return enumerated is None or enumerated == req.key[1]["trees"]

    def tamper(self, req, out):
        doc = json.loads(out)
        r = doc["result"]
        if "mst_weight" in r:
            r["mst_weight"] += 1
        else:
            r["max_entropy_bits"] += 1e-6
        return json.dumps(doc)


# ------------------------------------------------------------------ gossip


class Gossip(Workload):
    """Three grid requests (gossip --json) to one dense random geometric graph
    request (gossip --trial-log); every request draws with its own seed."""

    name = "gossip"
    GRID = 20
    GRID_TRIALS = 1000
    GRID_PROBS = tuple(round(0.76 - 0.005 * j, 6) for j in range(2 * GRID - 2))
    RGG_LATTICE = (15, 20)
    RGG_RADIUS = 0.3
    RGG_TRIALS = 100
    RGG_PROBS = (0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
    RGG_POOL = 3
    Q = 0.05

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        g = self.GRID
        edges = []
        for x in range(g):
            for y in range(g):
                if x + 1 < g:
                    edges.append((f"g{x}_{y}", f"g{x + 1}_{y}"))
                if y + 1 < g:
                    edges.append((f"g{x}_{y}", f"g{x}_{y + 1}"))
        self.grid = self._network("grid", edges, "g0_0", self.GRID_PROBS)
        self.rggs = [self._network(f"rgg-{k}", self._rgg(), "r0", self.RGG_PROBS)
                     for k in range(self.RGG_POOL)]

    def _rgg(self):
        rng, r = self.rng, self.RGG_RADIUS
        cols, rows = self.RGG_LATTICE
        n = cols * rows
        while True:
            # one point per cell of a cols x rows lattice keeps the density even
            pts = [
                ((c + rng.random()) / cols, (r_ + rng.random()) / rows)
                for r_ in range(rows)
                for c in range(cols)
            ]
            pts[0] = (0.0, 0.0)
            edges = [
                (f"r{i}", f"r{j}")
                for i in range(n)
                for j in range(i + 1, n)
                if math.dist(pts[i], pts[j]) <= r
            ]
            names = [f"r{i}" for i in range(n)]
            level = ref.bfs_levels(ref.adjacency(names, edges), "r0")
            if len(level) == n and 4 <= max(level.values()) <= 6:
                return edges

    def _network(self, tag, edges, bs, probs):
        path = self.write(f"{tag}.edges", [f"{a} {b}" for a, b in edges])
        sim = ref.GossipReference(edges, bs, probs, self.Q)
        return path, bs, probs, sim

    def request(self, i):
        seed = (self.seed * 1_000_003 + i) % (1 << 31)
        if i % 4 == 3:
            net = self.rggs[(i // 4) % self.RGG_POOL]
            cls, trials, extra = "rgg-trial-log", self.RGG_TRIALS, ["--trial-log"]
        else:
            net = self.grid
            cls, trials, extra = "grid-json", self.GRID_TRIALS, ["--json"]
        path, bs, probs, sim = net
        argv = [
            "gossip", "--graph", path, "--bs", bs,
            "--levels-probs", ",".join(repr(p) for p in probs),
            "--q", repr(self.Q), "--trials", str(trials), "--seed", str(seed),
        ] + extra
        counts = self.input_counts(path)
        counts["gossip.trials"] = trials
        return Request(cls, "small", argv, (sim, seed, trials), counts)

    def digest(self, req, out):
        """The summary fields, and every row of a trial log."""
        if "--json" in req.argv:
            r = _json_result(out)
            return ("json", r["source"], r["delivered"], r["mean_transmissions"],
                    r["mean_hops"], r["delivery_ratio"])
        fields = {}
        rows = []
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "trial":
                rows.append((parts[2] == "1", int(parts[3]), parts[4]))
            else:
                fields[parts[0]] = parts[1]
        return ("log", fields["source"], int(fields["delivered"]), tuple(rows))

    def verify(self, req, digest):
        sim, seed, trials = req.key
        outcomes = sim.run(seed, trials)
        delivered = sum(ok for ok, _ in outcomes)
        hops = sim.level[sim.source]
        if digest[0] == "json":
            _, source, got, mean_tx, mean_hops, ratio = digest
            return (
                source == sim.source
                and got == delivered
                and ratio == delivered / trials
                and mean_tx == sum(tx for _, tx in outcomes) / trials
                and mean_hops == (hops if delivered else 0.0)
            )
        _, source, got, rows = digest
        want = [(ok, tx, str(hops) if ok else "-") for ok, tx in outcomes]
        return source == sim.source and got == delivered and list(rows) == want

    def output_counts(self, req, digest):
        trials = req.counts["gossip.trials"]
        if digest[0] == "json":
            return {
                "gossip.link_attempts": round(digest[3] * trials),
                "gossip.delivered": digest[2],
            }
        return {
            "gossip.link_attempts": sum(tx for _, tx, _ in digest[3]),
            "gossip.delivered": digest[2],
        }

    def tamper(self, req, out):
        if "--json" in req.argv:
            doc = json.loads(out)
            doc["result"]["delivered"] += 1
            return json.dumps(doc)
        lines = out.splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("trial "))
        parts = lines[i].split()
        parts[2] = "0" if parts[2] == "1" else "1"
        lines[i] = " ".join(parts)
        return "\n".join(lines)


# -------------------------------------------------------------------- fuse


class Fuse(Workload):
    """fuse --json alternating compare and omega; f = n/10 outliers."""

    name = "fuse"
    SIZES = {"small": 500, "large": 1000}
    POOL = {"small": 3, "large": 2}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.pool = {
            size: [self._make(size, k) for k in range(self.POOL[size])]
            for size in self.SIZES
        }

    def _make(self, size, k):
        rng, n = self.rng, self.SIZES[size]
        f = n // 10
        rows = [(-rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)) for _ in range(n - f)]
        for _ in range(f):
            centre = rng.choice((-1, 1)) * rng.uniform(2.0, 10.0)
            half = rng.uniform(0.05, 1.0)
            rows.append((centre - half, centre + half))
        rng.shuffle(rows)
        path = self.write(f"{size}-{k}.intervals", [f"{lo!r} {hi!r}" for lo, hi in rows])
        return path, f, ref.fusion_summary(rows, f)

    def request(self, i):
        block, slot = divmod(i, 4)
        size = "large" if slot == 3 else "small"
        function = "compare" if (i + block) % 2 == 0 else "omega"
        pool = self.pool[size]
        path, f, summary = pool[block % len(pool)]
        argv = ["fuse", "--intervals", path, "--f", str(f), "--function", function, "--json"]
        counts = self.input_counts(path)
        counts["fusion.intervals"] = self.SIZES[size]
        return Request(f"{size}-{function}", size, argv, (function, summary), counts)

    def check(self, req, out):
        function, s = req.key
        r = _json_result(out)
        if function == "omega":
            return (
                [x["breakpoint"] for x in r["omega"]] == s["breakpoints"]
                and [x["count"] for x in r["omega"]] == s["at_points"]
                and r["between"] == s["between"]
            )
        m_lo, m_hi = s["m"]
        s_lo, s_hi = s["s"]
        return (
            r["m"] == {"lo": m_lo, "hi": m_hi, "width": m_hi - m_lo}
            and r["n"] == r["m"]
            and r["s"] == {"lo": s_lo, "hi": s_hi, "width": s_hi - s_lo}
            and r["m_equals_n"] is True
            and r["m_within_s"] is (s_lo <= m_lo and m_hi <= s_hi)
        )

    def tamper(self, req, out):
        doc = json.loads(out)
        r = doc["result"]
        if "omega" in r:
            r["omega"][len(r["omega"]) // 2]["count"] += 1
        else:
            r["m"]["lo"] -= 1.0
        return json.dumps(doc)


WORKLOADS = {w.name: w for w in (Plan, Enumerate, Gossip, Fuse)}
