"""Release gate: one test per advertised guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they happen. Each test computes its check, prints PASS or FAIL with the
measured deviation and elapsed time, and only then asserts, so a red run
still reports every criterion's number.
"""

import hashlib
import math
import random
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from prefixcast import (
    CodeLengthSet,
    GossipConfig,
    Graph,
    Inconsistent,
    IntervalSet,
    ProbabilityMassFunction,
    WeightedGraph,
    assign_levels,
    complete_graph,
    consecutive_lengths_sum,
    embed_dary_tree,
    expected_length,
    graph_entropy,
    huffman_code,
    kraft_alphabet_monotonicity,
    m_function,
    minimum_spanning_tree,
    n_function,
    path_reliability,
    petersen_graph,
    plan_multicast,
    ring_graph,
    s_function,
    shannon_entropy,
    simulate_gossip,
    trial_outcomes,
)
from prefixcast.multicast import CapacityExceeded

from oracles import (
    best_realizable_depth,
    fuse_marzullo_reference,
    kraft_holds_exact,
    min_spanning_weight,
    optimal_expected_length,
    overlap_count_at,
    random_weighted_connected,
)

SEED = 20260814


def verdict(number, ok, detail, started):
    elapsed = time.perf_counter() - started
    word = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {word} {detail} [{elapsed:.1f}s]")
    return elapsed


# criterion 1: closed-form Kraft sum for consecutive binary lengths


def test_criterion_1_consecutive_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 21):
        got = consecutive_lengths_sum(1, m, 2)
        worst = max(worst, abs(got - (1.0 - 2.0**-m)))
    ok = worst <= 1e-12
    elapsed = verdict(1, ok, f"consecutive lengths sum to 1-2^-M, max dev {worst:.2e}", t0)
    assert ok
    assert elapsed < 1.0


# criterion 2: Kraft feasibility survives any alphabet enlargement


def random_kraft_set(rng):
    while True:
        count = rng.randint(1, 10)
        lengths = tuple(rng.randint(1, 12) for _ in range(count))
        if kraft_holds_exact(lengths, 2):
            return lengths


def test_criterion_2_alphabet_monotonicity():
    t0 = time.perf_counter()
    rng = random.Random(SEED)
    failures = 0
    for _ in range(1000):
        lengths = random_kraft_set(rng)
        ls = CodeLengthSet(lengths, 2)
        for bigger in range(3, 11):
            # float route under test, integer-exact route as referee
            if not kraft_alphabet_monotonicity(ls, bigger):
                failures += 1
            if not kraft_holds_exact(lengths, bigger):
                failures += 1
    ok = failures == 0
    elapsed = verdict(
        2, ok, f"1000 binary-feasible sets stay feasible at D'=3..10, {failures} failures", t0
    )
    assert ok
    assert elapsed < 5.0


# criterion 3: Huffman beats every prefix code and sits in the entropy band


def grid_pmfs(symbols, ticks=20):
    """All pmfs with `symbols` positive masses on the 1/ticks grid."""
    for cut in combinations(range(1, ticks), symbols - 1):
        bounds = (0,) + cut + (ticks,)
        yield tuple((bounds[i + 1] - bounds[i]) / ticks for i in range(symbols))


def test_criterion_3_huffman_optimality_on_grid():
    t0 = time.perf_counter()
    checked = 0
    worst_gap = 0.0
    band_violations = 0
    for d in (2, 3):
        for symbols in range(1, 6):
            for probs in grid_pmfs(symbols):
                pmf = ProbabilityMassFunction.from_pairs(
                    tuple((f"s{i}", p) for i, p in enumerate(probs))
                )
                code = huffman_code(pmf, d)
                avg = expected_length(code, pmf)
                best = optimal_expected_length(probs, d)
                worst_gap = max(worst_gap, abs(avg - best))
                entropy = shannon_entropy(pmf, base=float(d))
                # single-symbol codes pay one digit above the zero entropy
                if not (entropy - 1e-9 <= avg < entropy + 1.0 + 1e-9):
                    band_violations += 1
                checked += 1
    ok = worst_gap <= 1e-9 and band_violations == 0
    elapsed = verdict(
        3,
        ok,
        f"{checked} grid pmfs at D=2,3: max gap to brute force {worst_gap:.2e}, "
        f"{band_violations} entropy-band violations",
        t0,
    )
    assert ok
    assert elapsed < 120.0


# criterion 4: rings and complete graphs reach the log2(n) entropy ceiling


def test_criterion_4_degree_entropy_maximum():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(3, 51):
        ceiling = math.log2(n)
        worst = max(worst, abs(graph_entropy(ring_graph(n)) - ceiling))
        worst = max(worst, abs(graph_entropy(complete_graph(n)) - ceiling))
    petersen_dev = abs(graph_entropy(petersen_graph()) - math.log2(10))
    worst = max(worst, petersen_dev)
    ok = worst <= 1e-12
    elapsed = verdict(
        4,
        ok,
        f"ring/complete n=3..50 and the 3-regular 10-vertex counterexample "
        f"all reach log2(n), max dev {worst:.2e}",
        t0,
    )
    assert ok
    assert elapsed < 1.0


# criterion 5: plans are doubly optimal (tree weight and placement depth)


def test_criterion_5_doubly_optimal_plans():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 5)
    successes = attempts = 0
    weight_mismatches = depth_mismatches = 0
    while successes < 200:
        attempts += 1
        assert attempts < 5000, "generator cannot reach 200 plannable instances"
        n = rng.randint(2, 8)
        vertices, edges = random_weighted_connected(rng, n, rng.randint(0, n))
        g = WeightedGraph(vertices, edges)
        root = rng.choice(vertices)
        leaders = rng.randint(1, min(5, n - 1))
        weights = [rng.randint(1, 9) for _ in range(leaders)]
        total = sum(weights)
        pmf = ProbabilityMassFunction.from_pairs(
            tuple((f"L{i}", w / total) for i, w in enumerate(weights))
        )
        try:
            plan = plan_multicast(g, root, pmf)
        except CapacityExceeded:
            continue
        successes += 1
        if abs(plan.mst_weight - min_spanning_weight(vertices, edges)) > 1e-9:
            weight_mismatches += 1
        emb = embed_dary_tree(minimum_spanning_tree(g), root, 2)
        paths = [p for p in emb.vertex_at if p]
        best = best_realizable_depth(paths, [w / total for w in weights])
        if best is None or abs(plan.assignment.expected_depth() - best) > 1e-9:
            depth_mismatches += 1
    ok = weight_mismatches == 0 and depth_mismatches == 0
    elapsed = verdict(
        5,
        ok,
        f"200 random plans ({attempts} attempts): {weight_mismatches} tree-weight "
        f"and {depth_mismatches} placement-depth mismatches",
        t0,
    )
    assert ok
    assert elapsed < 300.0


# criterion 6: path reliability closed forms against a million-trial MC


def test_criterion_6_reliability_formulas():
    t0 = time.perf_counter()
    trials = 1_000_000
    rng = np.random.default_rng(SEED)
    worst_sigma = 0.0
    for q in (0.1, 0.3, 0.5):
        for depth in (1, 2, 5, 10):
            up = rng.random((trials, depth)) >= q
            simulated = float(up.all(axis=1).mean())
            p = path_reliability(q, depth)
            se = math.sqrt(p * (1.0 - p) / trials)
            worst_sigma = max(worst_sigma, abs(simulated - p) / se)
    spot = abs(path_reliability(0.1, 2) - 0.81)
    ok = worst_sigma <= 3.0 and spot <= 1e-12
    elapsed = verdict(
        6,
        ok,
        f"12 (q, depth) combos within {worst_sigma:.2f} standard errors, "
        f"spot value dev {spot:.2e}",
        t0,
    )
    assert ok
    assert elapsed < 30.0


# criterion 7: gossip boundaries, the line-network analytic value, coupling


def diamond_network():
    g = Graph(
        ("BS", "A", "C", "B", "D"),
        (("BS", "A"), ("BS", "C"), ("A", "B"), ("C", "B"), ("B", "D")),
    )
    return assign_levels(g, "BS")


def line_network(hops):
    names = ("BS",) + tuple(f"x{i}" for i in range(1, hops + 1))
    edges = tuple((names[i], names[i + 1]) for i in range(hops))
    return assign_levels(Graph(names, edges), "BS"), names[-1]


def delivered_flags(net, cfg, source):
    return [ok for ok, _, _ in trial_outcomes(net, cfg, source)]


def test_criterion_7_gossip_boundaries_analytics_coupling():
    t0 = time.perf_counter()
    net = diamond_network()

    flood = simulate_gossip(
        net,
        GossipConfig((1.0, 1.0, 1.0), 0.0, 300, SEED, allow_nonmonotone=True),
        "D",
    )
    dead = simulate_gossip(
        net, GossipConfig((0.9, 0.5, 0.2), 1.0, 300, SEED), "D"
    )
    boundaries_ok = flood.delivery_ratio == 1.0 and dead.delivery_ratio == 0.0

    line, far = line_network(3)
    probs, q, trials = (0.9, 0.7, 0.5), 0.2, 100_000
    analytic = math.prod(p * (1.0 - q) for p in probs)
    sim = simulate_gossip(line, GossipConfig(probs, q, trials, SEED), far)
    se = math.sqrt(analytic * (1.0 - analytic) / trials)
    line_sigma = abs(sim.delivery_ratio - analytic) / se

    violations = 0
    base = (0.7, 0.5, 0.3)
    for seed in range(SEED, SEED + 50):
        low_cfg = GossipConfig(base, 0.2, 100, seed, allow_nonmonotone=True)
        low = delivered_flags(net, low_cfg, "D")
        for j in range(3):
            raised = tuple(
                min(1.0, p + 0.25) if i == j else p for i, p in enumerate(base)
            )
            high = delivered_flags(
                net, GossipConfig(raised, 0.2, 100, seed, allow_nonmonotone=True), "D"
            )
            violations += sum(1 for a, b in zip(low, high) if a and not b)
        calm = delivered_flags(
            net, GossipConfig(base, 0.05, 100, seed, allow_nonmonotone=True), "D"
        )
        violations += sum(1 for a, b in zip(low, calm) if a and not b)

    ok = boundaries_ok and line_sigma <= 3.0 and violations == 0
    elapsed = verdict(
        7,
        ok,
        f"boundaries {'exact' if boundaries_ok else 'WRONG'}, line network within "
        f"{line_sigma:.2f} standard errors, {violations} coupling violations over 50 seeds",
        t0,
    )
    assert ok
    assert elapsed < 120.0


# criterion 8: fusion agrees with subset/counting oracles and S is 1-Lipschitz


def s_endpoints(result):
    if isinstance(result, Inconsistent):
        return result.a, result.b
    return result.lo, result.hi


def counting_s_oracle(pairs, f):
    los = [lo for lo, _ in pairs]
    his = [hi for _, hi in pairs]
    a = max(x for x in los if sum(1 for lo in los if lo >= x) >= f + 1)
    b = min(x for x in his if sum(1 for hi in his if hi <= x) >= f + 1)
    return a, b


def random_instance(rng):
    n = rng.randint(1, 10)
    f = rng.randint(0, min(4, n - 1))
    pairs = []
    for _ in range(n):
        lo = round(rng.uniform(-50.0, 50.0), 3)
        pairs.append((lo, lo + round(rng.uniform(0.0, 20.0), 3)))
    return pairs, f


def test_criterion_8_fusion_oracle_equivalence_and_lipschitz():
    t0 = time.perf_counter()
    rng = random.Random(SEED + 8)
    m_bad = n_bad = s_bad = lip_bad = 0
    for _ in range(10_000):
        pairs, f = random_instance(rng)
        s = IntervalSet.from_pairs(pairs, f)

        regions = fuse_marzullo_reference(pairs, f)
        m = m_function(s)
        if regions:
            if m is None or (m.lo, m.hi) != (regions[0][0], regions[-1][1]):
                m_bad += 1
        elif m is not None:
            m_bad += 1

        endpoints = sorted({x for pair in pairs for x in pair})
        hot = [x for x in endpoints if overlap_count_at(pairs, x) >= s.quorum]
        envelope = n_function(s)
        if hot:
            if envelope is None or (envelope.lo, envelope.hi) != (hot[0], hot[-1]):
                n_bad += 1
        elif envelope is not None:
            n_bad += 1

        if s_endpoints(s_function(s)) != counting_s_oracle(pairs, f):
            s_bad += 1

        # sup-norm perturbation of every endpoint moves S by no more
        eps = rng.uniform(0.0, 5.0)
        moved = []
        for lo, hi in pairs:
            a = lo + rng.uniform(-eps, eps)
            b = hi + rng.uniform(-eps, eps)
            moved.append((min(a, b), max(a, b)))
        base_a, base_b = s_endpoints(s_function(s))
        pert_a, pert_b = s_endpoints(s_function(IntervalSet.from_pairs(moved, f)))
        if abs(pert_a - base_a) > eps + 1e-9 or abs(pert_b - base_b) > eps + 1e-9:
            lip_bad += 1

    worked = IntervalSet.from_pairs(((8.0, 12.0), (11.0, 13.0), (14.0, 15.0)), 1)
    wm, ws = m_function(worked), s_function(worked)
    worked_ok = (wm.lo, wm.hi) == (11.0, 12.0) and (ws.lo, ws.hi) == (11.0, 13.0)

    ok = m_bad == n_bad == s_bad == lip_bad == 0 and worked_ok
    elapsed = verdict(
        8,
        ok,
        f"10000 instances: {m_bad}/{n_bad}/{s_bad} M/N/S oracle mismatches, "
        f"{lip_bad} Lipschitz violations, worked example "
        f"{'exact' if worked_ok else 'WRONG'}",
        t0,
    )
    assert ok
    assert elapsed < 120.0


# criterion 9: every seeded computation above is rerun-stable, byte for byte


def test_criterion_9_seeded_reruns_are_byte_identical():
    t0 = time.perf_counter()
    net, far = line_network(3)
    cfg = GossipConfig((0.9, 0.7, 0.5), 0.2, 2000, SEED)
    sim_ok = simulate_gossip(net, cfg, far) == simulate_gossip(net, cfg, far)

    draws = [
        hashlib.sha256(np.random.default_rng(SEED).random(100_000).tobytes()).hexdigest()
        for _ in range(2)
    ]
    numpy_ok = draws[0] == draws[1]

    argv = [
        sys.executable, "-m", "prefixcast.cli", "gossip", "--graph", "-",
        "--bs", "BS", "--levels-probs", "0.9,0.7", "--q", "0.2",
        "--trials", "300", "--seed", str(SEED),
    ]
    edge_text = "BS x1\nx1 x2\n"
    runs = [
        subprocess.run(argv, input=edge_text.encode(), capture_output=True)
        for _ in range(2)
    ]
    cli_ok = (
        runs[0].returncode == runs[1].returncode == 0
        and runs[0].stdout == runs[1].stdout
    )

    ok = sim_ok and numpy_ok and cli_ok
    elapsed = verdict(
        9,
        ok,
        f"rerun stability: simulator {'stable' if sim_ok else 'UNSTABLE'}, "
        f"MC stream {'stable' if numpy_ok else 'UNSTABLE'}, "
        f"CLI bytes {'stable' if cli_ok else 'UNSTABLE'}",
        t0,
    )
    assert ok
