"""One integer rule for every public count, arity, depth and length.

An integer is whatever has ``__index__`` (PEP 357): int, bool and numpy
integers are accepted and stored as int, while 2.5, "2" and None are
refused with a ValueError that names the parameter. ``CONTRACT`` has one
row per ``int``-annotated parameter of ``prefixcast.__all__``, and the
completeness test keeps it that way.
"""

import inspect
import re

import numpy as np
import pytest

import prefixcast as pc

PMF = pc.ProbabilityMassFunction.from_pairs([("a", 0.5), ("b", 0.25), ("c", 0.25)])
LINE = pc.WeightedGraph((0, 1, 2), ((0, 1, 1.0), (1, 2, 2.0)))
ONE = pc.ProbabilityMassFunction.from_pairs([("a", 1.0)])
LENGTHS = pc.CodeLengthSet((1, 2), 2)
INTERVALS = ((0.0, 1.0), (0.5, 2.0), (1.0, 3.0))


def _same(x):
    return x


# (function or class, parameter): (name in the message, call with value v,
# a valid value, what the call keeps of v)
CONTRACT = {
    ("CodeLengthSet", "lengths"): (
        "codeword length", lambda v: pc.CodeLengthSet((v, 2), 2), 1, lambda c: c.lengths[0]
    ),
    ("CodeLengthSet", "alphabet_size"): (
        "alphabet size", lambda v: pc.CodeLengthSet((1, 2), v), 3, lambda c: c.alphabet_size
    ),
    ("PrefixCode", "alphabet_size"): (
        "alphabet size",
        lambda v: pc.PrefixCode(v, {"a": pc.Codeword((0,))}),
        2,
        lambda c: c.alphabet_size,
    ),
    ("consecutive_lengths_sum", "n1"): (
        "n1", lambda v: pc.consecutive_lengths_sum(v, 2, 2), 1, _same
    ),
    ("consecutive_lengths_sum", "m"): (
        "M", lambda v: pc.consecutive_lengths_sum(1, v, 2), 2, _same
    ),
    ("consecutive_lengths_sum", "d"): (
        "alphabet size", lambda v: pc.consecutive_lengths_sum(1, 2, v), 3, _same
    ),
    ("arithmetic_progression_satisfies_kraft", "n1"): (
        "n1", lambda v: pc.arithmetic_progression_satisfies_kraft(v, 1, 2, 2), 1, _same
    ),
    ("arithmetic_progression_satisfies_kraft", "step"): (
        "step", lambda v: pc.arithmetic_progression_satisfies_kraft(1, v, 2, 2), 1, _same
    ),
    ("arithmetic_progression_satisfies_kraft", "m"): (
        "M", lambda v: pc.arithmetic_progression_satisfies_kraft(1, 1, v, 2), 2, _same
    ),
    ("arithmetic_progression_satisfies_kraft", "d"): (
        "alphabet size", lambda v: pc.arithmetic_progression_satisfies_kraft(1, 1, 2, v), 3, _same
    ),
    ("kraft_alphabet_monotonicity", "d_prime"): (
        "D'", lambda v: pc.kraft_alphabet_monotonicity(LENGTHS, v), 3, _same
    ),
    ("huffman_lengths", "d"): (
        "alphabet size", lambda v: pc.huffman_lengths(PMF, v), 3, lambda lengths: lengths["a"]
    ),
    ("huffman_code", "d"): (
        "alphabet size", lambda v: pc.huffman_code(PMF, v), 2, lambda c: c.alphabet_size
    ),
    ("total_nodes", "d"): ("arity", lambda v: pc.total_nodes(v, 2), 2, _same),
    ("total_nodes", "n_max"): ("depth", lambda v: pc.total_nodes(2, v), 2, _same),
    ("LeaderAssignment", "arity"): (
        "arity", lambda v: pc.LeaderAssignment(v, {"a": (0,)}, ONE), 2, lambda a: a.arity
    ),
    ("LevelLeaderCounts", "counts"): (
        "s_j", lambda v: pc.LevelLeaderCounts((v, 1), 2), 1, lambda c: c.counts[0]
    ),
    ("LevelLeaderCounts", "arity"): (
        "arity", lambda v: pc.LevelLeaderCounts((1,), v), 2, lambda c: c.arity
    ),
    ("node_selection_probability", "s_j"): (
        "s_j", lambda v: pc.node_selection_probability(v, 1, 2), 1, _same
    ),
    ("node_selection_probability", "j"): (
        "depth", lambda v: pc.node_selection_probability(1, v, 2), 1, _same
    ),
    ("node_selection_probability", "d"): (
        "arity", lambda v: pc.node_selection_probability(1, 1, v), 2, _same
    ),
    ("level_leader_probability", "s_j"): (
        "s_j", lambda v: pc.level_leader_probability(v, 1, 2, 2), 1, _same
    ),
    ("level_leader_probability", "j"): (
        "level", lambda v: pc.level_leader_probability(1, v, 2, 2), 1, _same
    ),
    ("level_leader_probability", "d"): (
        "arity", lambda v: pc.level_leader_probability(1, 1, v, 2), 2, _same
    ),
    ("level_leader_probability", "n_max"): (
        "n_max", lambda v: pc.level_leader_probability(1, 1, 2, v), 2, _same
    ),
    ("local_leader_probability", "n_max"): (
        "n_max", lambda v: pc.local_leader_probability(pc.LevelLeaderCounts((1,), 2), v), 2, _same
    ),
    # Huffman coding checks D first, so the refusal names the alphabet size
    ("assign_leaders", "d"): (
        "alphabet size", lambda v: pc.assign_leaders(PMF, v), 2, lambda a: a.arity
    ),
    ("path_reliability", "n_j"): ("depth", lambda v: pc.path_reliability(0.1, v), 2, _same),
    ("last_link_failure_probability", "n_j"): (
        "depth", lambda v: pc.last_link_failure_probability(0.1, v), 2, _same
    ),
    ("embed_dary_tree", "d"): (
        "arity", lambda v: pc.embed_dary_tree(LINE, 1, v), 2, lambda e: e.arity
    ),
    ("plan_multicast", "d"): (
        "arity",
        lambda v: pc.plan_multicast(LINE, 1, ONE, v),
        2,
        lambda p: p.assignment.arity,
    ),
    ("GossipConfig", "trials"): (
        "trials", lambda v: pc.GossipConfig((0.5,), 0.1, v, 7), 2, lambda c: c.trials
    ),
    ("GossipConfig", "seed"): (
        "seed", lambda v: pc.GossipConfig((0.5,), 0.1, 2, v), 7, lambda c: c.seed
    ),
    ("assign_sectors", "k"): (
        "sector count",
        lambda v: pc.assign_sectors({0: (0.0, 0.0), 1: (0.0, 1.0)}, 0, v),
        4,
        lambda s: s[1],
    ),
    ("IntervalSet", "f"): ("fault bound", lambda v: pc.IntervalSet(INTERVALS, v), 1, lambda s: s.f),
    ("IntervalSet.from_pairs", "f"): (
        "fault bound", lambda v: pc.IntervalSet.from_pairs(INTERVALS, v), 1, lambda s: s.f
    ),
    ("ring_graph", "n"): ("vertex count", lambda v: pc.ring_graph(v), 4, lambda g: g.vertices[-1]),
    ("complete_graph", "n"): (
        "vertex count", lambda v: pc.complete_graph(v), 3, lambda g: g.vertices[-1]
    ),
    ("star_graph", "leaves"): (
        "leaf count", lambda v: pc.star_graph(v), 2, lambda g: g.vertices[-1]
    ),
    ("path_graph", "n"): ("vertex count", lambda v: pc.path_graph(v), 3, lambda g: g.vertices[-1]),
}

# result types: their integer fields are counted or derived by the library,
# not read from a caller
EXEMPT = {
    ("SimResult", "trials"): "copied from a checked GossipConfig",
    ("SimResult", "delivered"): "counted by summarize_trials",
    ("SimResult", "seed"): "copied from a checked GossipConfig",
    ("OverlapFunction", "n"): "the size of a checked IntervalSet",
    ("EmbeddedDaryTree", "arity"): "checked by embed_dary_tree, which builds it",
    ("EmbeddedDaryTree", "depth"): "counted by embed_dary_tree, which builds it",
    ("Codeword", "digits"): (
        "checked by PrefixCode, which holds codewords; LeaderAssignment holds the "
        "same digits as tuples, checked by the same routine"
    ),
}

# None, where a parameter documents it as the default
NONE_MEANS_DEFAULT = {("local_leader_probability", "n_max")}


def _outcome(row, value):
    """What a row's call does with ``value``: the kept value and its type, or the refusal."""
    _, build, _, keep = row
    try:
        kept = keep(build(value))
    except ValueError as err:
        return "refused", str(err)
    return "kept", kept, type(kept)


REFUSALS = [
    (key, bad)
    for key in sorted(CONTRACT)
    for bad in (2.5, "2", None)
    if not (bad is None and key in NONE_MEANS_DEFAULT)
]


@pytest.mark.parametrize(
    "key, bad", REFUSALS, ids=[f"{'.'.join(key)}-{bad!r}" for key, bad in REFUSALS]
)
def test_a_non_integer_is_refused_by_name(key, bad):
    name, build, _, _ = CONTRACT[key]
    with pytest.raises(ValueError) as err:
        build(bad)
    assert str(err.value) == f"{name} must be an integer, got {bad!r}"


@pytest.mark.parametrize("key", sorted(CONTRACT), ids=".".join)
def test_a_numpy_integer_is_kept_as_int(key):
    row = CONTRACT[key]
    ok = row[2]
    want = _outcome(row, ok)
    assert want[0] == "kept"
    assert _outcome(row, np.int64(ok)) == want
    assert _outcome(row, np.uint8(ok)) == want


@pytest.mark.parametrize("key", sorted(CONTRACT), ids=".".join)
def test_true_is_one(key):
    row = CONTRACT[key]
    assert _outcome(row, True) == _outcome(row, 1)


def _int_annotated():
    """(function or class[.method], parameter) for each int-annotated parameter in __all__."""
    found = set()
    for name in pc.__all__:
        obj = getattr(pc, name)
        targets = [(name, obj)] if callable(obj) else []
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    targets.append((f"{name}.{attr}", member))
        for qualname, target in targets:
            try:
                params = inspect.signature(target).parameters.values()
            except ValueError:  # a builtin exception type has no signature
                continue
            for p in params:
                if re.search(r"\bint\b", str(p.annotation)):
                    found.add((qualname, p.name))
    return found


def test_the_contract_covers_every_int_annotated_parameter():
    annotated = _int_annotated()
    assert not EXEMPT.keys() - annotated, "an exemption names no int-annotated parameter"
    assert sorted(annotated - EXEMPT.keys() - CONTRACT.keys()) == [], "missing contract rows"
    assert sorted(CONTRACT.keys() - annotated) == [], "rows for parameters not annotated int"


def test_counts_are_refused_not_truncated():
    with pytest.raises(ValueError, match=r"^s_j must be an integer, got -0\.5$"):
        pc.LevelLeaderCounts((-0.5, 4.9), 2)


def test_codeword_digits_of_any_integer_type_are_kept_as_int():
    code = pc.PrefixCode(
        2, {"a": pc.Codeword((True,)), "b": pc.Codeword((np.int64(0), np.uint8(1)))}
    )
    assert [str(word) for word in code.assignments.values()] == ["1", "01"]
    assert code.assignments == {"a": pc.Codeword((1,)), "b": pc.Codeword((0, 1))}
    assert all(type(d) is int for word in code.assignments.values() for d in word.digits)


def test_lengths_of_any_integer_type_are_kept_as_int():
    lengths = pc.CodeLengthSet((np.int64(1),), 2)
    assert lengths.lengths == (1,) and type(lengths.lengths[0]) is int
    assert pc.CodeLengthSet((True, 2), 2).lengths == (1, 2)

