"""The level-by-level trial loop against a queue-based oracle.

``oracles.gossip_trials_queue`` walks each trial with a FIFO queue and a
per-node hop map, drawing every decision through the full four-stage
splitmix64 chain. ``trial_outcomes`` evaluates trials level by level with
the chain's first three stages hoisted, so it must agree with the oracle
trial by trial on any connected graph, id type, source and parameters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast.cli import VALIDATION_EXIT, run
from prefixcast.gossip import (
    GossipConfig,
    SimResult,
    _draw,
    assign_levels,
    summarize_trials,
    trial_outcomes,
)
from prefixcast.graphs import Graph

from oracles import gossip_draw, gossip_trials_queue, shortest_hops

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


@st.composite
def gossip_cases(draw, prob_floor=0.0, q_ceiling=1.0):
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
    probs = draw(
        st.lists(
            st.floats(prob_floor, 1.0), min_size=max(depth, 1), max_size=depth + 2
        )
    )
    cfg = GossipConfig(
        tuple(probs),
        draw(st.floats(0.0, q_ceiling)),
        draw(st.integers(1, 12)),
        draw(st.integers(-(2**63), 2**65)),
        allow_nonmonotone=True,
    )
    return Graph(verts, edges), bs, source, cfg


@settings(max_examples=300, deadline=None)
@given(gossip_cases())
def test_trial_outcomes_match_queue_oracle(case):
    g, bs, source, cfg = case
    got = list(trial_outcomes(assign_levels(g, bs), cfg, source))
    want = gossip_trials_queue(
        g.vertices, g.edges, bs, cfg.level_probabilities, cfg.q, cfg.seed,
        cfg.trials, source,
    )
    assert got == want


@settings(max_examples=150, deadline=None)
@given(gossip_cases(prob_floor=0.6, q_ceiling=0.3))
def test_delivered_trials_take_exactly_source_level_hops(case):
    g, bs, source, cfg = case
    net = assign_levels(g, bs)
    for ok, _, hops in trial_outcomes(net, cfg, source):
        assert hops == (net.level[source] if ok else None)


@given(
    st.integers(-(2**63), 2**65),
    st.integers(0, 2**20),
    st.integers(0, 1),
    st.integers(0, 2**40),
)
def test_oracle_draw_chain_is_the_documented_one(seed, trial, kind, index):
    assert gossip_draw(seed, trial, kind, index) == _draw(seed, trial, kind, index)


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
