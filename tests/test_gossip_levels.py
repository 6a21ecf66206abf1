"""The level-by-level trial loop against a queue-based oracle.

``oracles.gossip_trials_queue`` walks each trial with a FIFO queue and a
per-node hop map, drawing every decision through the full four-stage
splitmix64 chain and comparing it as a float. ``trial_outcomes`` evaluates
trials level by level, drawing each candidate's gate once and its links only
while the gate is open, with the chain's first three stages hoisted and each
draw settled by its top bits or compared as an integer against a threshold,
so it must agree with the oracle trial by trial on any connected graph, id
type, source and parameters, including the probabilities 0 and 1, and p
below, at and above 1 - q.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast.cli import VALIDATION_EXIT, run
from prefixcast.gossip import (
    GossipConfig,
    LeveledNetwork,
    SimResult,
    _band,
    _threshold,
    assign_levels,
    summarize_trials,
    trial_outcomes,
)
from prefixcast.graphs import Graph

from oracles import _splitmix64, gossip_draw, gossip_trials_queue, shortest_hops

LINE3 = Graph(("BS", "A", "B"), (("BS", "A"), ("A", "B")))

ids_int = st.lists(st.integers(-40, 40), min_size=1, max_size=10, unique=True)
ids_str = st.lists(
    st.text("abxyz019", min_size=1, max_size=3), min_size=1, max_size=10, unique=True
)
ids_mixed = st.lists(
    st.one_of(st.integers(0, 12), st.text("01ab", min_size=1, max_size=2)),
    min_size=1,
    max_size=10,
    unique=True,
)


UNIT = st.floats(0.0, 1.0)


@st.composite
def gossip_cases(draw, probs=UNIT, qs=UNIT):
    """A connected graph with shuffled vertex order, base station, source and
    a config with enough (unordered) level probabilities."""
    verts = tuple(draw(st.one_of(ids_int, ids_str, ids_mixed)))
    n = len(verts)
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    if n > 1:
        extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        pairs |= {
            (min(a, b), max(a, b))
            for a, b in draw(st.lists(extra, max_size=2 * n))
            if a != b
        }
    edges = tuple((verts[a], verts[b]) for a, b in sorted(pairs))
    bs = draw(st.sampled_from(verts))
    source = draw(st.sampled_from(verts))
    depth = max(shortest_hops(verts, edges, bs).values())
    cfg = GossipConfig(
        tuple(draw(st.lists(probs, min_size=max(depth, 1), max_size=depth + 2))),
        draw(qs),
        draw(st.integers(1, 12)),
        draw(st.integers(-(2**63), 2**65)),
        allow_nonmonotone=True,
    )
    return Graph(verts, edges), bs, source, cfg


@pytest.mark.parametrize(
    "probs, qs",
    [
        (UNIT, UNIT),
        (UNIT, st.just(0.0)),
        (UNIT, st.just(1.0)),
        (st.just(1.0), UNIT),
        (st.one_of(st.just(1.0), UNIT), st.just(0.0)),
        (st.floats(0.0, 0.5), st.floats(0.0, 0.3)),
        (st.floats(0.8, 1.0), st.floats(0.5, 1.0)),
        (st.just(0.75), st.just(0.25)),
    ],
    ids=["any", "q=0", "q=1", "p=1", "some p=1, q=0", "p below 1-q", "p above 1-q", "p at 1-q"],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_trial_outcomes_match_queue_oracle(probs, qs, data):
    g, bs, source, cfg = data.draw(gossip_cases(probs, qs))
    got = list(trial_outcomes(assign_levels(g, bs), cfg, source))
    want = gossip_trials_queue(
        g.vertices, g.edges, bs, cfg.level_probabilities, cfg.q, cfg.seed,
        cfg.trials, source,
    )
    assert got == want


def test_trial_outcomes_match_queue_oracle_on_a_dense_wide_network():
    # 300 vertices, one per cell of a 15 x 20 lattice, joined within 0.3:
    # candidates here have dozens of fired uphill neighbors, which the
    # hypothesis graphs of at most 10 vertices never give
    rng = random.Random(2011)
    cols, rows = 15, 20
    pts = [((c + rng.random()) / cols, (r + rng.random()) / rows)
           for r in range(rows) for c in range(cols)]
    pts[0] = (0.0, 0.0)
    verts = tuple(range(len(pts)))
    edges = tuple((i, j) for i in verts for j in verts[i + 1:]
                  if math.dist(pts[i], pts[j]) <= 0.3)
    g = Graph(verts, edges)
    net = assign_levels(g, 0)
    depth = net.max_level()
    source = min(v for v in verts if net.level[v] == depth)
    assert 4 <= depth <= 6
    for probs, q in [
        ((0.6, 0.5, 0.4, 0.3, 0.2, 0.1), 0.05),
        (tuple(0.99 - 0.001 * j for j in range(6)), 0.8),
    ]:
        cfg = GossipConfig(probs, q, 200, 7)
        want = gossip_trials_queue(verts, edges, 0, probs, q, cfg.seed, cfg.trials, source)
        assert list(trial_outcomes(net, cfg, source)) == want
        assert 0 < sum(ok for ok, _, _ in want) < cfg.trials


@settings(max_examples=150, deadline=None)
@given(gossip_cases(st.floats(0.6, 1.0), st.floats(0.0, 0.3)))
def test_delivered_trials_take_exactly_source_level_hops(case):
    g, bs, source, cfg = case
    net = assign_levels(g, bs)
    for ok, _, hops in trial_outcomes(net, cfg, source):
        assert hops == (net.level[source] if ok else None)


def test_oracle_splitmix64_gives_the_published_outputs():
    # splitmix64 seeded with 0 adds the increment to its state before each
    # mix, so its first three outputs come from states 0, gamma and 2 gamma
    gamma = 0x9E3779B97F4A7C15
    states = (0, gamma, (2 * gamma) & ((1 << 64) - 1))
    assert [_splitmix64(s) for s in states] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


@settings(max_examples=300, deadline=None)
@given(gossip_cases(), st.data())
def test_leveled_network_derives_the_bfs_distance(case, data):
    g, bs, _, _ = case
    # dropping an edge may disconnect the graph, which is refused
    dropped = data.draw(st.sets(st.sampled_from(g.edges), max_size=2)) if g.edges else set()
    g = Graph(g.vertices, tuple(e for e in g.edges if e not in dropped))
    truth = shortest_hops(g.vertices, g.edges, bs)
    if math.inf in truth.values():
        with pytest.raises(ValueError, match=r"^graph is disconnected; leveling undefined$"):
            LeveledNetwork(g, bs)
    else:
        assert LeveledNetwork(g, bs).level == truth


def test_leveled_network_refuses_a_base_station_that_is_not_a_vertex():
    with pytest.raises(ValueError, match=r"^base station 'missing' is not a vertex$"):
        LeveledNetwork(LINE3, "missing")


@pytest.mark.parametrize("seed", range(16))
def test_probability_equal_to_its_own_draw_matches_the_oracle(seed):
    # the boundary an integer threshold must get right: a draw equal to its
    # probability is not below it, and the next float up is. On LINE3 with
    # source B, the gates are B's and A's and the links B->A and A->BS.
    gate_a, gate_b = (gossip_draw(seed, 0, 0, i) for i in (1, 2))
    link_ba, link_a = (gossip_draw(seed, 0, 1, i) for i in (2 * 3 + 1, 1 * 3 + 0))
    up = lambda x: math.nextafter(x, 1.0)
    cases = [((1.0, p), 0.0) for p in (gate_b, up(gate_b))]
    cases += [((p, 1.0), 0.0) for p in (gate_a, up(gate_a))]
    cases += [((1.0, 1.0), 1.0 - p) for p in (link_ba, up(link_ba), link_a, up(link_a))]
    net = assign_levels(LINE3, "BS")
    for probs, q in cases:
        cfg = GossipConfig(probs, q, 1, seed, allow_nonmonotone=True)
        want = gossip_trials_queue(LINE3.vertices, LINE3.edges, "BS", probs, q, seed, 1, "B")
        assert list(trial_outcomes(net, cfg, "B")) == want


SMALLEST_NORMAL = 2.0**-1022


@given(
    st.one_of(
        UNIT,
        st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53, 5e-324, SMALLEST_NORMAL, 2.0**-64]),
        st.floats(0.0, SMALLEST_NORMAL),  # subnormals
    ),
    st.integers(0, 2**64 - 1),
)
def test_threshold_decides_each_draw_as_the_float_compare_does(p, other):
    t = _threshold(p)
    for z in (t - 1, t, 0, 2**64 - 1, other):
        if 0 <= z < 2**64:
            assert (z / 2.0**64 < p) == (z < t)


@given(
    st.one_of(
        UNIT,
        st.sampled_from([0.0, 1.0, 1.0 - 2.0**-53, 2.0**-64]),
        st.floats(0.0, SMALLEST_NORMAL),  # subnormals
    ),
    st.integers(0, 2**33 - 1),
    st.integers(-(2**35), 2**35),
)
def test_band_decides_each_draw_as_the_last_stage_does(p, inside, near):
    # z is the value before the last xor-shift; the trial loop settles it by
    # lo and hi alone outside the band, which an oracle draw lands in with
    # probability 2**-31, so the band's edges are tested here directly. The
    # base station's gate has t = 2**64: every z passes, by z < lo alone
    for t in (_threshold(p), 1 << 64):
        lo, hi, band_t = _band(t)
        for z in (lo - 1, lo, hi - 1, hi, t - 1, t, 0, 2**64 - 1, lo + inside, t + near):
            if 0 <= z < 2**64:
                assert (z < lo or z < hi and z ^ (z >> 31) < band_t) == (z ^ (z >> 31) < t)
                assert z < lo or t < 1 << 64


def test_summarize_trials_folds_outcomes():
    cfg = GossipConfig((1.0, 0.5), 0.0, 4, 3)
    outcomes = [(True, 3, 2), (False, 1, None), (True, 2, 2), (False, 0, None)]
    assert summarize_trials(cfg, outcomes) == SimResult(
        trials=4,
        delivered=2,
        delivery_ratio=0.5,
        mean_transmissions=1.5,
        mean_hops=2.0,
        seed=3,
    )


@pytest.mark.parametrize("count", [0, 3, 9])
def test_summarize_trials_refuses_a_count_other_than_the_trials(count):
    # trial_outcomes may be consumed partially; folding a part, or more than
    # one run, must not scale the ratios by the wrong trial count
    cfg = GossipConfig((1.0, 0.5), 0.0, 4, 3)
    with pytest.raises(ValueError, match=rf"^folded {count} outcomes, but the config has 4 trials$"):
        summarize_trials(cfg, [(True, 3, 2)] * count)


# ---------------------------------------------------- validation when called


def test_trial_outcomes_checks_source_when_called():
    net = assign_levels(LINE3, "BS")
    with pytest.raises(ValueError, match="event source 'zz' is not a vertex"):
        trial_outcomes(net, GossipConfig((1.0, 0.5), 0.0, 10, 1), "zz")


def test_trial_outcomes_checks_probability_count_when_called():
    net = assign_levels(LINE3, "BS")
    with pytest.raises(ValueError, match="only 1 level probabilities"):
        trial_outcomes(net, GossipConfig((1.0,), 0.0, 10, 1), "B")


def test_disconnected_graph_message():
    with pytest.raises(ValueError, match="disconnected"):
        assign_levels(Graph((0, 1, 2), ((0, 1),)), 0)


@pytest.mark.parametrize("mode", [[], ["--json"], ["--trial-log"]])
def test_cli_gossip_names_a_bad_source(tmp_path, capsys, mode):
    graph = tmp_path / "line3.edges"
    graph.write_text("BS A\nA B\n")
    code = run([
        "gossip", "--graph", str(graph), "--bs", "BS", "--source", "zz",
        "--levels-probs", "1.0,0.5", "--trials", "10", "--seed", "1",
    ] + mode)
    out, err = capsys.readouterr()
    assert code == VALIDATION_EXIT
    assert out == ""
    assert err == "prefixcast gossip: event source 'zz' is not a vertex\n"
