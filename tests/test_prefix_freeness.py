"""The sorted prefix scan against an all-pairs oracle.

``prefix_violations`` is the one prefix-freeness check. Its one caller,
``source_coding._digit_paths``, checks the digits of a code and of a
placement for two constructors: ``PrefixCode``, which refuses a code that
is not prefix-free, and ``LeaderAssignment``, which keeps its verdict as
``security``; ``verify_secure`` and ``plan_cost_audit`` read that verdict. A code and a
placement are each built once from the canonical digits, so every request
scans once: ``huffman`` and ``code-from-lengths`` their code,
``assign-leaders`` and ``plan-multicast`` (audited, relaxed or not) their
placement. Paths are drawn from a small tree so that duplicates, nested
prefixes and disjoint paths all occur often.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast import hierarchy, multicast, source_coding
from prefixcast.hierarchy import LeaderAssignment, verify_secure
from prefixcast.source_coding import (
    PrefixCode,
    ProbabilityMassFunction,
    prefix_violations,
)

from oracles import is_prefix_free, prefix_pairs
from test_cli_golden import _stdout, data_dir  # noqa: F401 (data_dir is a fixture)

D = 3
MAX_DEPTH = 3


@st.composite
def labelled_paths(draw):
    """Label -> path, with label order shuffled against insertion order."""
    paths = draw(
        st.lists(
            st.lists(st.integers(0, D - 1), min_size=1, max_size=MAX_DEPTH).map(tuple),
            min_size=1,
            max_size=14,
        )
    )
    ranks = draw(st.permutations(range(len(paths))))
    return {f"L{r:02d}": path for r, path in zip(ranks, paths)}


@given(paths=st.lists(st.lists(st.integers(0, 1), max_size=4).map(tuple), max_size=16))
@example(paths=[(0, 1), (0, 1), (0,), (), (0, 1, 1), (1,)])
@settings(max_examples=300)
def test_prefix_violations_matches_all_pairs_oracle(paths):
    assert prefix_violations(paths) == prefix_pairs(paths)


@given(leaders=labelled_paths())
@example(leaders={"b": (1, 2), "a": (1,), "d": (1, 2), "c": (0,)})
@settings(max_examples=300)
def test_verify_secure_violations_match_oracle_in_order(leaders):
    k = len(leaders)
    importance = ProbabilityMassFunction.from_pairs((label, 1.0 / k) for label in leaders)
    assignment = LeaderAssignment(D, leaders, importance)

    report = verify_secure(assignment)

    labels = sorted(leaders)
    expected = tuple(
        (labels[i], labels[j]) for i, j in prefix_pairs([leaders[x] for x in labels])
    )
    assert report.violations == expected
    assert report.secure == (not expected)
    assert report is assignment.security

    # a changed placement is judged afresh, and equality ignores the verdict
    clash = dict.fromkeys(leaders, leaders[labels[0]])
    moved = dataclasses.replace(assignment, leaders=clash)
    assert moved.security.secure == (k == 1)
    assert len(moved.security.violations) == k * (k - 1)
    restored = dataclasses.replace(moved, leaders=leaders)
    assert restored.security == report
    object.__setattr__(restored, "security", moved.security)
    assert restored == assignment


@given(words=labelled_paths())
@example(words={"z": (0,), "y": (2, 1), "x": (0,)})
@settings(max_examples=300)
def test_prefix_code_accepts_exactly_the_prefix_free_sets(words):
    digit_paths = list(words.values())

    if is_prefix_free(digit_paths):
        assert PrefixCode(D, words).assignments == words
        return
    # the error names the first clashing pair in assignment order
    i, j = min((min(p), max(p)) for p in prefix_pairs(digit_paths))
    labels = list(words)
    with pytest.raises(ValueError) as err:
        PrefixCode(D, words)
    assert str(err.value) == (
        f"codewords for {labels[i]!r} and {labels[j]!r} are not prefix-free"
    )


@pytest.mark.parametrize(
    "digits, message",
    [
        ((0.9,), "digits of 'a' must be integers, got (0.9,)"),
        ((1, 2.0), "digits of 'a' must be integers, got (1, 2.0)"),
        ("01", "digits of 'a' must be integers, got '01'"),
        ((), "codeword for 'a' is empty"),
        ((0, 3), "digit 3 out of range for D=3 in 'a'"),
        ((True, -1), "digit -1 out of range for D=3 in 'a'"),
    ],
)
def test_a_code_and_a_placement_refuse_the_same_digits_alike(digits, message):
    # one routine checks both, so a leader path is refused as a codeword is
    with pytest.raises(ValueError) as code_err:
        PrefixCode(D, {"a": digits})
    with pytest.raises(ValueError) as placement_err:
        LeaderAssignment(D, {"a": digits}, ProbabilityMassFunction.from_pairs([("a", 1.0)]))
    assert str(code_err.value) == str(placement_err.value) == message


PLAN = "plan-multicast --graph network.edges --pmf importance.pmf --root gw"


@pytest.mark.parametrize(
    "invocation",
    [
        "huffman --pmf importance.pmf --D 2",
        "code-from-lengths --lengths 1,2,2",
        "assign-leaders --pmf importance.pmf --D 2",
        PLAN,
        PLAN + " --audit",
        # a relaxed plan that shifts builds its one assignment after the shift
        "plan-multicast --graph relay.edges --pmf importance.pmf --root r --relax --audit",
    ],
)
def test_each_request_scans_its_code_or_placement_once(invocation, data_dir, monkeypatch):
    calls = []

    def counting(paths):
        calls.append(len(paths))
        return prefix_violations(paths)

    # wrap the scan wherever a library module binds it
    for module in (source_coding, hierarchy, multicast):
        if hasattr(module, "prefix_violations"):
            monkeypatch.setattr(module, "prefix_violations", counting)

    out = _stdout(invocation.split())
    if invocation.startswith(("assign-leaders", "plan-multicast")):
        assert "secure true" in out
    assert calls == [3]
    assert not hasattr(multicast, "prefix_violations")
