import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefixcast.hierarchy import (
    LeaderAssignment,
    LevelLeaderCounts,
    assign_leaders,
    last_link_failure_probability,
    level_leader_probability,
    local_leader_probability,
    node_selection_probability,
    path_reliability,
    total_nodes,
    verify_secure,
)
from prefixcast.source_coding import (
    CodeLengthSet,
    ProbabilityMassFunction,
    code_from_lengths,
    expected_length,
    huffman_code,
    huffman_lengths,
    shannon_entropy,
)

from oracles import is_prefix_free


def pmf_of(**probs):
    return ProbabilityMassFunction.from_pairs(probs.items())


# ----------------------------------------------------------------- counting


def test_total_nodes():
    assert total_nodes(2, 2) == 7
    assert total_nodes(2, 3) == 15
    assert total_nodes(3, 2) == 13
    assert total_nodes(5, 0) == 1
    for d in range(2, 6):
        for n in range(0, 6):
            assert total_nodes(d, n) == sum(d**j for j in range(n + 1))


def test_level_leader_counts_validation():
    c = LevelLeaderCounts((1, 2), 2)
    assert c.n_max == 2
    with pytest.raises(ValueError):
        LevelLeaderCounts((3,), 2)  # only 2 nodes at depth 1
    with pytest.raises(ValueError):
        LevelLeaderCounts((-1,), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: total_nodes(1, 3), "arity must be >= 2, got 1"),
        (lambda: total_nodes(2, -1), "depth must be >= 0, got -1"),
        (lambda: LeaderAssignment(1, {"A": (0,)}, pmf_of(A=1.0)), "arity must be >= 2, got 1"),
        (lambda: LevelLeaderCounts((1,), 1), "arity must be >= 2, got 1"),
        (lambda: node_selection_probability(1, 1, 1), "arity must be >= 2, got 1"),
        (lambda: node_selection_probability(0, -1, 2), "depth must be >= 0, got -1"),
        (
            lambda: local_leader_probability(LevelLeaderCounts((1, 2), 2), n_max=1),
            "n_max=1 smaller than the 2 levels of counts",
        ),
        (
            lambda: last_link_failure_probability(1.5, 2),
            "link failure probability 1.5 outside [0, 1]",
        ),
        (lambda: last_link_failure_probability(0.5, 0), "depth must be >= 1, got 0"),
        # digits are never truncated: 0.9 is not 0, and -0.5 is not in range as 0
        (
            lambda: LeaderAssignment(2, {"A": (0.9,)}, pmf_of(A=1.0)),
            "digits of 'A' must be integers, got (0.9,)",
        ),
        (
            lambda: LeaderAssignment(2, {"A": (0, 1.7)}, pmf_of(A=1.0)),
            "digits of 'A' must be integers, got (0, 1.7)",
        ),
        (
            lambda: LeaderAssignment(2, {"A": (-0.5,)}, pmf_of(A=1.0)),
            "digits of 'A' must be integers, got (-0.5,)",
        ),
        (
            lambda: LeaderAssignment(2, {"A": "01"}, pmf_of(A=1.0)),
            "digits of 'A' must be integers, got '01'",
        ),
        (
            lambda: LeaderAssignment(2, {"A": (-1,)}, pmf_of(A=1.0)),
            "digit -1 out of range for D=2 in 'A'",
        ),
        (
            lambda: LeaderAssignment(3, {"A": (0, 3)}, pmf_of(A=1.0)),
            "digit 3 out of range for D=3 in 'A'",
        ),
        (
            lambda: LeaderAssignment(2, {"A": ()}, pmf_of(A=1.0)),
            "codeword for 'A' is empty",
        ),
    ],
)
def test_out_of_range_arguments_are_named(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


# -------------------------------------------------------------- probability


def test_node_selection_probability():
    assert node_selection_probability(1, 1, 2) == pytest.approx(0.5)
    assert node_selection_probability(0, 3, 2) == 0.0
    assert node_selection_probability(3, 2, 3) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        node_selection_probability(5, 1, 2)


def test_level_leader_probability():
    assert level_leader_probability(1, 1, 2, 2) == pytest.approx(1 / 7)
    assert level_leader_probability(0, 2, 2, 2) == 0.0
    assert level_leader_probability(4, 2, 3, 2) == pytest.approx(4 / 13)
    with pytest.raises(ValueError):
        level_leader_probability(3, 1, 2, 2)
    with pytest.raises(ValueError):
        level_leader_probability(1, 3, 2, 2)


def test_local_leader_probability():
    assert local_leader_probability(LevelLeaderCounts((1, 2), 2)) == pytest.approx(3 / 7)
    assert local_leader_probability(LevelLeaderCounts((0, 0, 0), 2)) == 0.0
    assert local_leader_probability(LevelLeaderCounts((2,), 2)) == pytest.approx(2 / 3)
    # levels sum independently of how many leaders each contributes
    assert local_leader_probability(
        LevelLeaderCounts((1, 2), 2), n_max=3
    ) == pytest.approx(3 / 15)


# ----------------------------------------------------------------- placement


def test_assign_leaders_dyadic():
    a = assign_leaders(pmf_of(A=0.5, B=0.25, C=0.25), 2)
    assert a.leaders == {"A": (0,), "B": (1, 0), "C": (1, 1)}
    assert a.expected_depth() == pytest.approx(1.5)
    assert (a.arity, a.depth) == (2, 2)
    assert verify_secure(a).secure


def test_assign_leaders_single():
    a = assign_leaders(pmf_of(A=1.0), 2)
    assert a.leaders == {"A": (0,)}
    assert a.expected_depth() <= 1.0


def test_assign_leaders_uniform_four():
    a = assign_leaders(pmf_of(A=0.25, B=0.25, C=0.25, D=0.25), 2)
    assert all(len(path) == 2 for path in a.leaders.values())
    assert a.expected_depth() == pytest.approx(2.0)


def test_placement_and_code_are_the_canonical_code_of_huffman_lengths():
    # one set of digits: the placement's paths, the code's words, and the
    # canonical code of Huffman's lengths in label order
    rng = random.Random(43)
    for _ in range(150):
        d = rng.choice([2, 3, 4, 5, 7])
        # small integer weights tie often, which decides the canonical order
        raw = [rng.choice([rng.random(), float(rng.randint(1, 3))]) + 1e-6
               for _ in range(rng.randint(1, 40))]
        total = math.fsum(raw)
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"L{i}", p / total) for i, p in enumerate(raw)]
        )
        labels = pmf.labels()
        lengths = huffman_lengths(pmf, d)
        canonical = code_from_lengths(
            CodeLengthSet(tuple(lengths[label] for label in labels), d), labels
        )
        code = huffman_code(pmf, d)
        placement = assign_leaders(pmf, d)
        assert list(placement.leaders) == list(code.assignments) == list(labels)
        assert placement.leaders == {label: w.digits for label, w in code.assignments.items()}
        assert code == canonical
        assert (placement.arity, placement.depth) == (d, max(lengths.values()))


def test_assignment_rejects_root_and_overflow():
    with pytest.raises(ValueError):
        LeaderAssignment(2, {"A": ()}, pmf_of(A=1.0))
    with pytest.raises(ValueError):
        LeaderAssignment(2, {"A": (2,)}, pmf_of(A=1.0))
    with pytest.raises(ValueError):
        LeaderAssignment(2, {"B": (0,)}, pmf_of(A=1.0))


def test_assignment_takes_integer_digits_of_any_integer_type():
    a = LeaderAssignment(
        np.int64(2), {"A": [np.int64(0)], "B": (True, np.uint8(0))}, pmf_of(A=0.5, B=0.5)
    )
    assert a.leaders == {"A": (0,), "B": (1, 0)}
    assert (a.arity, a.depth) == (2, 2) and type(a.arity) is int
    assert all(type(d) is int for path in a.leaders.values() for d in path)
    assert a.security.secure


def test_verify_secure_examples():
    good = LeaderAssignment(
        2,
        {"A": (0,), "B": (1, 0), "C": (1, 1)},
        pmf_of(A=0.5, B=0.25, C=0.25),
    )
    report = verify_secure(good)
    assert report.secure and report.violations == ()

    bad = LeaderAssignment(
        2, {"A": (0,), "B": (0, 1)}, pmf_of(A=0.5, B=0.5)
    )
    report = verify_secure(bad)
    assert not report.secure
    assert report.violations == (("A", "B"),)


@given(
    raw=st.lists(
        st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=10,
    ),
    d=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=120)
def test_huffman_assignments_always_secure(raw, d):
    total = math.fsum(raw)
    pmf = ProbabilityMassFunction.from_pairs(
        [(f"L{i}", p / total) for i, p in enumerate(raw)]
    )
    a = assign_leaders(pmf, d)
    assert verify_secure(a).secure
    assert is_prefix_free(list(a.leaders.values()))
    assert a.depth_kraft_sum() <= 1.0 + 1e-12


@given(
    raw=st.lists(
        st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=10,
    ),
    d=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=120)
def test_expected_depth_within_entropy_bound(raw, d):
    total = math.fsum(raw)
    pmf = ProbabilityMassFunction.from_pairs(
        [(f"L{i}", p / total) for i, p in enumerate(raw)]
    )
    a = assign_leaders(pmf, d)
    h = shannon_entropy(pmf, base=d)
    assert h - 1e-9 <= a.expected_depth() < h + 1.0 + 1e-9


def test_importance_monotonicity():
    rng = random.Random(41)
    for _ in range(30):
        k = rng.randint(2, 8)
        raw = [rng.random() + 1e-6 for _ in range(k)]
        total = sum(raw)
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"L{i}", p / total) for i, p in enumerate(raw)]
        )
        a = assign_leaders(pmf, rng.choice([2, 3]))
        probs = pmf.as_dict()
        depths = {label: len(path) for label, path in a.leaders.items()}
        for x in probs:
            for y in probs:
                if probs[x] > probs[y]:
                    assert depths[x] <= depths[y]


def test_expected_length_equals_expected_depth():
    # both sum p * depth by fsum, so huffman and assign-leaders print one float
    pmf = pmf_of(a=0.1, b=0.1, c=0.15, d=0.65)
    assert expected_length(huffman_code(pmf, 2), pmf) == 1.55
    rng = random.Random(15)
    for _ in range(400):
        raw = [rng.random() + 1e-6 for _ in range(rng.randint(2, 40))]
        total = sum(raw)
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"L{i}", p / total) for i, p in enumerate(raw)]
        )
        d = rng.choice([2, 3])
        assert expected_length(huffman_code(pmf, d), pmf) == (
            assign_leaders(pmf, d).expected_depth()
        )


# ----------------------------------------------------------------- reliability


def test_path_reliability_values():
    assert path_reliability(0.1, 2) == pytest.approx(0.81, abs=1e-15)
    assert path_reliability(0.0, 7) == 1.0
    assert path_reliability(0.5, 10) == pytest.approx(2.0**-10)
    with pytest.raises(ValueError):
        path_reliability(1.2, 1)
    with pytest.raises(ValueError):
        path_reliability(0.3, 0)


def test_last_link_failure_values():
    assert last_link_failure_probability(0.2, 3) == pytest.approx(0.128)
    assert last_link_failure_probability(0.0, 4) == 0.0
    assert last_link_failure_probability(1.0, 1) == 1.0


def test_failure_distribution_totals_one():
    for q in (0.0, 0.1, 0.37, 0.5, 0.9, 1.0):
        for n in (1, 2, 5, 10):
            fail_somewhere = math.fsum(
                last_link_failure_probability(q, m) for m in range(1, n + 1)
            )
            assert fail_somewhere + path_reliability(q, n) == pytest.approx(
                1.0, abs=1e-12
            )


def test_path_reliability_against_monte_carlo():
    rng = np.random.default_rng(20260814)
    trials = 10**6
    for q, n in ((0.5, 10), (0.1, 2), (0.3, 5)):
        links_ok = rng.random((trials, n)) >= q
        est = float(links_ok.all(axis=1).mean())
        p = path_reliability(q, n)
        se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(est - p) <= 3 * se
