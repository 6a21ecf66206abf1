import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast.source_coding import (
    CodeLengthSet,
    KraftViolation,
    PrefixCode,
    ProbabilityMassFunction,
    arithmetic_progression_satisfies_kraft,
    code_from_lengths,
    consecutive_lengths_sum,
    expected_length,
    huffman_code,
    huffman_lengths,
    kraft_alphabet_monotonicity,
    kraft_sum,
    satisfies_kraft,
    shannon_entropy,
)

from oracles import (
    canonical_code,
    huffman_lengths_by_selection,
    is_prefix_free,
    kraft_holds_exact,
    optimal_expected_length,
)


def words_as_strings(code):
    return {label: "".join(map(str, path)) for label, path in code.assignments.items()}


def lengths_of(code):
    return {label: len(path) for label, path in code.assignments.items()}


# ---------------------------------------------------------------- kraft sums


def test_kraft_sum_binary_lengths_1_2_3():
    # 1/2 + 1/4 + 1/8
    assert kraft_sum(CodeLengthSet((1, 2, 3), 2)) == pytest.approx(0.875, abs=1e-15)
    assert satisfies_kraft(CodeLengthSet((1, 2, 3), 2))


def test_kraft_sum_saturated_and_violated():
    assert kraft_sum(CodeLengthSet((1, 1), 2)) == pytest.approx(1.0, abs=0.0)
    assert satisfies_kraft(CodeLengthSet((1, 1), 2))
    assert kraft_sum(CodeLengthSet((1, 1, 1), 2)) == pytest.approx(1.5)
    assert not satisfies_kraft(CodeLengthSet((1, 1, 1), 2))


@pytest.mark.parametrize("lengths", [(1, 1, 45), (1, 1, 60)])
def test_kraft_sum_just_above_one_is_violated(lengths):
    # 1 + 2**-45 is within 1e-12 of 1, and 1 + 2**-60 rounds to 1.0
    length_set = CodeLengthSet(lengths, 2)
    assert not satisfies_kraft(length_set)
    with pytest.raises(KraftViolation):
        code_from_lengths(length_set)


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=40),
    d=st.integers(min_value=2, max_value=4),
)
@settings(max_examples=300)
def test_satisfies_kraft_matches_integer_oracle(lengths, d):
    assert satisfies_kraft(CodeLengthSet(tuple(lengths), d)) == kraft_holds_exact(lengths, d)


def test_consecutive_closed_form_matches_direct_sum():
    for d in (2, 3, 5):
        for n1 in (1, 2, 4):
            for m in (1, 2, 7, 13):
                direct = kraft_sum(
                    CodeLengthSet(tuple(range(n1, n1 + m)), d)
                )
                assert consecutive_lengths_sum(n1, m, d) == pytest.approx(
                    direct, abs=1e-12
                )


def test_consecutive_binary_from_one_is_one_minus_half_power():
    for m in range(1, 21):
        assert consecutive_lengths_sum(1, m, 2) == pytest.approx(
            1.0 - 2.0**-m, abs=1e-12
        )


def test_arithmetic_progression_value_and_predicate():
    # n1=2, step=1, M=4, D=3: 1/9 + 1/27 + 1/81 + 1/243 = 40/243
    total, ok = arithmetic_progression_satisfies_kraft(2, 1, 4, 3)
    assert total == pytest.approx(40.0 / 243.0, abs=1e-12)
    assert ok
    # n1=2, step=2, M=3, D=2: 1/4 + 1/16 + 1/64 = 21/64
    total, ok = arithmetic_progression_satisfies_kraft(2, 2, 3, 2)
    assert total == pytest.approx(21.0 / 64.0, abs=1e-12)
    assert ok


@given(
    n1=st.integers(min_value=1, max_value=12),
    step=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=60),
    d=st.integers(min_value=2, max_value=10),
)
def test_arithmetic_progression_never_violates(n1, step, m, d):
    # geometric tail is bounded by D**-n1 / (1 - D**-step) <= 1
    total, ok = arithmetic_progression_satisfies_kraft(n1, step, m, d)
    direct = kraft_sum(CodeLengthSet(tuple(n1 + k * step for k in range(m)), d))
    assert total == pytest.approx(direct, abs=1e-9)
    assert ok


def test_alphabet_monotonicity_worked_case():
    # sums 0.8125 at D=2 and 25/81 at D=3
    lengths = CodeLengthSet((2, 2, 3, 3, 4), 2)
    assert kraft_sum(lengths) == pytest.approx(0.8125)
    assert kraft_alphabet_monotonicity(lengths, 3)
    assert kraft_sum(CodeLengthSet((2, 2, 3, 3, 4), 3)) == pytest.approx(
        25.0 / 81.0, abs=1e-12
    )


def test_alphabet_monotonicity_rejects_bad_base():
    with pytest.raises(KraftViolation):
        kraft_alphabet_monotonicity(CodeLengthSet((1, 1, 1), 2), 3)
    with pytest.raises(ValueError):
        kraft_alphabet_monotonicity(CodeLengthSet((1, 2), 2), 2)


@given(data=st.data())
def test_alphabet_monotonicity_random_sets(data):
    # grow a random Kraft-satisfying set greedily, then enlarge the alphabet
    d = data.draw(st.integers(min_value=2, max_value=4))
    lengths = []
    budget = Fraction(1)
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        n = data.draw(st.integers(min_value=1, max_value=10))
        cost = Fraction(1, d**n)
        if cost <= budget:
            lengths.append(n)
            budget -= cost
    if not lengths:
        lengths = [1]
    d_prime = data.draw(st.integers(min_value=d + 1, max_value=12))
    assert kraft_alphabet_monotonicity(CodeLengthSet(tuple(lengths), d), d_prime)


# ------------------------------------------------------------ canonical codes


def test_code_from_lengths_small_binary():
    code = code_from_lengths(CodeLengthSet((1, 2, 2), 2), ("a", "b", "c"))
    assert words_as_strings(code) == {"a": "0", "b": "10", "c": "11"}
    code = code_from_lengths(CodeLengthSet((2, 2, 2), 2), ("a", "b", "c"))
    assert words_as_strings(code) == {"a": "00", "b": "01", "c": "10"}


def test_code_from_lengths_unsorted_input_keeps_label_pairing():
    code = code_from_lengths(CodeLengthSet((3, 1, 3, 2), 2), ("w", "x", "y", "z"))
    lens = lengths_of(code)
    assert lens == {"w": 3, "x": 1, "y": 3, "z": 2}
    assert words_as_strings(code)["x"] == "0"


def test_code_from_lengths_rejects_violation():
    with pytest.raises(KraftViolation):
        code_from_lengths(CodeLengthSet((1, 1, 2), 2))


@pytest.mark.parametrize(
    "lengths, labels", [((1, 1), ("a", "a")), ((1, 2, 2), ("a", "b", "a"))]
)
def test_code_from_lengths_rejects_repeated_labels(lengths, labels):
    # a dict keyed by label used to keep only the last codeword of each
    with pytest.raises(ValueError, match="label 'a' appears more than once"):
        code_from_lengths(CodeLengthSet(lengths, 2), labels)


def test_stretched_canonical_code_is_the_optimal_code_behind_zeros():
    # relaxed multicast plans rely on this: extending every length by b
    # prefixes every canonical codeword with b zero digits
    rng = random.Random(5)
    for _ in range(300):
        d = rng.randint(2, 12)
        raw = [rng.random() + 0.01 for _ in range(rng.randint(1, 20))]
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"s{i}", r / sum(raw)) for i, r in enumerate(raw)]
        )
        code = huffman_code(pmf, d)
        labels = pmf.labels()
        for b in (1, 2, 5):
            stretched = code_from_lengths(
                CodeLengthSet(tuple(len(code.assignments[l]) + b for l in labels), d),
                labels,
            )
            for label in labels:
                assert stretched.assignments[label] == (0,) * b + code.assignments[label]


@given(data=st.data())
@settings(max_examples=200)
def test_code_from_lengths_is_prefix_free_with_exact_lengths(data):
    d = data.draw(st.integers(min_value=2, max_value=5))
    lengths = []
    budget = Fraction(1)
    for _ in range(data.draw(st.integers(min_value=1, max_value=12))):
        n = data.draw(st.integers(min_value=1, max_value=9))
        cost = Fraction(1, d**n)
        if cost <= budget:
            lengths.append(n)
            budget -= cost
    if not lengths:
        lengths = [1]
    code = code_from_lengths(CodeLengthSet(tuple(lengths), d))
    words = list(code.assignments.values())
    assert is_prefix_free(words)
    got = sorted(map(len, words))
    assert got == sorted(lengths)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_code_from_lengths_matches_the_canonical_oracle(data):
    # the leaves of a complete D-ary tree, grown by splitting a leaf and then
    # one of its children, and so on down a chain, then a random nonempty
    # subset of them: every feasible length set up to depth 64 can arise,
    # and a complete one makes the count carry into the first digit
    d = data.draw(st.integers(min_value=2, max_value=16))
    rng = data.draw(st.randoms(use_true_random=False))
    leaves = [1] * d
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        depth = leaves.pop(rng.randrange(len(leaves)))
        chain = data.draw(st.integers(min_value=0, max_value=64 - depth))
        leaves += [depth + k for k in range(1, chain + 1) for _ in range(d - 1)]
        leaves.append(depth + chain)
    lengths = [n for n in leaves if rng.random() < 0.5] or leaves
    rng.shuffle(lengths)
    code = code_from_lengths(CodeLengthSet(tuple(lengths), d))
    assert list(code.assignments.values()) == canonical_code(lengths, d)


@pytest.mark.parametrize(
    "lengths, d",
    [
        ((1, 2000), 2),
        ((2, 2000, 2, 1999, 2, 2000), 2),
        ((1,) * 15 + (2000,), 16),
        ((2001, 1, 1, 1999, 2000), 3),
    ],
    ids=["binary", "binary-ties", "hex", "ternary"],
)
def test_code_from_lengths_matches_the_oracle_on_long_codewords(lengths, d):
    code = code_from_lengths(CodeLengthSet(lengths, d))
    assert list(code.assignments.values()) == canonical_code(lengths, d)


def test_long_codeword_is_linear_in_its_digits():
    # deriving each codeword's digits from one big integer is quadratic in
    # its length: about 40 s at this length
    def timeout(signum, frame):
        raise TimeoutError("code_from_lengths took over 10 s on lengths (1, 300000)")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        code = code_from_lengths(CodeLengthSet((1, 300000), 3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code.assignments["0"] == (0,)
    assert code.assignments["1"] == (1,) + (0,) * 299999


# ------------------------------------------------------------------- huffman


def test_huffman_binary_dyadic_pmf_matches_entropy():
    pmf = ProbabilityMassFunction.from_pairs(
        [("a", 0.5), ("b", 0.25), ("c", 0.125), ("d", 0.125)]
    )
    code = huffman_code(pmf, 2)
    assert sorted(lengths_of(code).values()) == [1, 2, 3, 3]
    assert expected_length(code, pmf) == pytest.approx(1.75)
    assert shannon_entropy(pmf) == pytest.approx(1.75)


def test_huffman_binary_non_dyadic():
    pmf = ProbabilityMassFunction.from_pairs(
        [("a", 0.4), ("b", 0.3), ("c", 0.2), ("d", 0.1)]
    )
    code = huffman_code(pmf, 2)
    assert lengths_of(code) == {"a": 1, "b": 2, "c": 3, "d": 3}
    assert expected_length(code, pmf) == pytest.approx(1.9)


def test_huffman_ternary_with_dummy_padding():
    pmf = ProbabilityMassFunction.from_pairs(
        [("a", 0.4), ("b", 0.3), ("c", 0.2), ("d", 0.1)]
    )
    code = huffman_code(pmf, 3)
    assert lengths_of(code) == {"a": 1, "b": 1, "c": 2, "d": 2}
    assert expected_length(code, pmf) == pytest.approx(1.3)
    assert words_as_strings(code) == {"a": "0", "b": "1", "c": "20", "d": "21"}


def test_huffman_deterministic_tiebreak():
    pmf = ProbabilityMassFunction.from_pairs(
        [("a", 0.5), ("b", 0.25), ("c", 0.25)]
    )
    code = huffman_code(pmf, 2)
    assert words_as_strings(code) == {"a": "0", "b": "10", "c": "11"}


def test_huffman_single_symbol_gets_length_one():
    pmf = ProbabilityMassFunction.from_pairs([("only", 1.0)])
    code = huffman_code(pmf, 2)
    assert words_as_strings(code) == {"only": "0"}
    assert expected_length(code, pmf) == pytest.approx(1.0)


def test_huffman_at_most_d_symbols_get_length_one_without_padding():
    pmf = ProbabilityMassFunction.from_pairs([("a", 0.5), ("b", 0.3), ("c", 0.2)])
    for d in (3, 4, 10**6, 10**400):
        assert huffman_lengths(pmf, d) == {"a": 1, "b": 1, "c": 1}


def test_huffman_rerun_is_identical():
    rng = random.Random(20260814)
    for _ in range(25):
        k = rng.randint(2, 9)
        raw = [rng.random() + 1e-9 for _ in range(k)]
        total = sum(raw)
        pmf = ProbabilityMassFunction.from_pairs(
            [(f"s{i}", p / total) for i, p in enumerate(raw)]
        )
        d = rng.choice([2, 3, 4])
        first = words_as_strings(huffman_code(pmf, d))
        again = words_as_strings(huffman_code(pmf, d))
        assert first == again


def grid_pmfs(size, step=0.05):
    """All pmfs with ``size`` entries on a probability grid, as tuples."""
    ticks = round(1.0 / step)

    def rec(remaining, slots):
        if slots == 1:
            yield (remaining,)
            return
        for t in range(remaining + 1):
            for rest in rec(remaining - t, slots - 1):
                yield (t,) + rest

    for combo in rec(ticks, size):
        yield tuple(t * step for t in combo)


def test_huffman_matches_bruteforce_on_coarse_grid():
    # 0.2 grid keeps this quick; the acceptance suite runs the 0.05 grid
    for d in (2, 3):
        for size in (2, 3, 4):
            for probs in grid_pmfs(size, step=0.2):
                if any(p <= 0.0 for p in probs):
                    continue
                pmf = ProbabilityMassFunction.from_pairs(
                    [(f"s{i}", p) for i, p in enumerate(probs)]
                )
                code = huffman_code(pmf, d)
                got = expected_length(code, pmf)
                want = optimal_expected_length(probs, d)
                assert got == pytest.approx(want, abs=1e-9)


@given(
    raw=st.lists(
        st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
        min_size=2,
        max_size=9,
    ),
    d=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=150)
def test_huffman_entropy_bounds(raw, d):
    total = math.fsum(raw)
    pmf = ProbabilityMassFunction.from_pairs(
        [(f"s{i}", p / total) for i, p in enumerate(raw)]
    )
    code = huffman_code(pmf, d)
    mean = expected_length(code, pmf)
    h = shannon_entropy(pmf, base=d)
    assert h - 1e-9 <= mean < h + 1.0 + 1e-9


@given(
    raw=st.lists(
        st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
        min_size=1,
        max_size=9,
    ),
    d=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=150)
def test_huffman_output_is_valid_prefix_code(raw, d):
    total = math.fsum(raw)
    pmf = ProbabilityMassFunction.from_pairs(
        [(f"s{i}", p / total) for i, p in enumerate(raw)]
    )
    code = huffman_code(pmf, d)
    assert set(code.assignments) == set(pmf.labels())
    assert is_prefix_free(list(code.assignments.values()))
    assert all(0 <= dig < d for path in code.assignments.values() for dig in path)


def test_huffman_lengths_only_route_agrees_with_code():
    pmf = ProbabilityMassFunction.from_pairs(
        [("a", 0.35), ("b", 0.3), ("c", 0.2), ("d", 0.1), ("e", 0.05)]
    )
    for d in (2, 3, 4):
        assert huffman_lengths(pmf, d) == lengths_of(huffman_code(pmf, d))


# ties (small integers), zeros and dyadic values decide which node merges first
HUFFMAN_WEIGHTS = st.one_of(
    st.integers(min_value=0, max_value=4).map(float),
    st.integers(min_value=0, max_value=12).map(lambda k: 2.0**-k),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@given(
    raw=st.lists(HUFFMAN_WEIGHTS, min_size=1, max_size=40).filter(any),
    d=st.integers(min_value=2, max_value=16),
)
@settings(max_examples=400)
# a correctly rounded sum of each merge (fsum) would merge these in another order
@example(raw=[2.0, 5.0, 7.0, 4.0, 1.0, 9.0, 7.0], d=3)
def test_huffman_lengths_match_selection_oracle(raw, d):
    total = 0.0
    for w in raw:
        total += w
    probs = [w / total for w in raw]
    pmf = ProbabilityMassFunction.from_pairs([(f"s{i}", p) for i, p in enumerate(probs)])
    got = huffman_lengths(pmf, d)
    assert [got[label] for label in pmf.labels()] == huffman_lengths_by_selection(probs, d)


# ---------------------------------------------------------------- validation


def test_pmf_rejects_bad_input():
    with pytest.raises(ValueError):
        ProbabilityMassFunction.from_pairs([("a", 0.5), ("b", 0.4)])
    with pytest.raises(ValueError):
        ProbabilityMassFunction.from_pairs([("a", -0.1), ("b", 1.1)])
    with pytest.raises(ValueError):
        ProbabilityMassFunction.from_pairs([("a", 0.5), ("a", 0.5)])
    with pytest.raises(ValueError):
        ProbabilityMassFunction.from_pairs([])


def test_length_set_rejects_bad_input():
    with pytest.raises(ValueError):
        CodeLengthSet((0, 1), 2)
    with pytest.raises(ValueError):
        CodeLengthSet((1, 2), 1)
    with pytest.raises(ValueError):
        CodeLengthSet((), 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PrefixCode(1, {"a": (0,)}), "alphabet size must be >= 2, got 1"),
        (lambda: PrefixCode(2, {}), "prefix code has no assignments"),
        (lambda: PrefixCode(2, {"a": (2,)}), "digit 2 out of range for D=2 in 'a'"),
        (
            lambda: PrefixCode(2, {"a": (0,), "b": (1, 0.5)}),
            "digits of 'b' must be integers, got (1, 0.5)",
        ),
        (
            lambda: PrefixCode(2, {"a": ("1",)}),
            "digits of 'a' must be integers, got ('1',)",
        ),
        (lambda: PrefixCode(2, {"a": ()}), "codeword for 'a' is empty"),
        (
            lambda: PrefixCode(2, {"a": (0,), "b": ()}),
            "codeword for 'b' is empty",
        ),
        (lambda: consecutive_lengths_sum(0, 1, 2), "n1 must be >= 1, got 0"),
        (lambda: consecutive_lengths_sum(1, 1, 1), "alphabet size must be >= 2, got 1"),
        (lambda: arithmetic_progression_satisfies_kraft(0, 1, 1, 2), "n1 must be >= 1, got 0"),
        (lambda: arithmetic_progression_satisfies_kraft(1, 1, 1, 1), "alphabet size must be >= 2, got 1"),
        (
            lambda: huffman_lengths(ProbabilityMassFunction.from_pairs([("a", 1.0)]), 1),
            "alphabet size must be >= 2, got 1",
        ),
    ],
)
def test_out_of_range_arguments_are_named(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_expected_length_names_a_label_the_code_lacks():
    code = PrefixCode(2, {"a": (0,)})
    pmf = ProbabilityMassFunction.from_pairs([("a", 0.5), ("b", 0.5)])
    with pytest.raises(KeyError) as err:
        expected_length(code, pmf)
    assert err.value.args == ("code has no codeword for label 'b'",)


def test_entropy_base_and_zero_handling():
    pmf = ProbabilityMassFunction.from_pairs([("a", 0.5), ("b", 0.5), ("c", 0.0)])
    assert shannon_entropy(pmf) == pytest.approx(1.0)
    assert shannon_entropy(pmf, base=4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        shannon_entropy(pmf, base=1.0)
