"""The sorted prefix scan against an all-pairs oracle.

``prefix_violations`` is the one prefix-freeness check behind
``PrefixCode``, ``verify_secure`` and ``plan_cost_audit``. Paths are drawn
from a small tree so that duplicates, nested prefixes and disjoint paths
all occur often.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast.hierarchy import DaryTree, LeaderAssignment, verify_secure
from prefixcast.source_coding import (
    Codeword,
    PrefixCode,
    ProbabilityMassFunction,
    prefix_violations,
)

from oracles import is_prefix_free, prefix_pairs

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
    assignment = LeaderAssignment(DaryTree(D, MAX_DEPTH), leaders, importance)

    report = verify_secure(assignment)

    labels = sorted(leaders)
    expected = tuple(
        (labels[i], labels[j]) for i, j in prefix_pairs([leaders[x] for x in labels])
    )
    assert report.violations == expected
    assert report.secure == (not expected)


@given(words=labelled_paths())
@example(words={"z": (0,), "y": (2, 1), "x": (0,)})
@settings(max_examples=300)
def test_prefix_code_accepts_exactly_the_prefix_free_sets(words):
    assignments = {label: Codeword(path) for label, path in words.items()}
    digit_paths = list(words.values())

    if is_prefix_free(digit_paths):
        assert PrefixCode(D, assignments).assignments == assignments
        return
    # the error names the first clashing pair in assignment order
    i, j = min((min(p), max(p)) for p in prefix_pairs(digit_paths))
    labels = list(words)
    with pytest.raises(ValueError) as err:
        PrefixCode(D, assignments)
    assert str(err.value) == (
        f"codewords for {labels[i]!r} and {labels[j]!r} are not prefix-free"
    )
