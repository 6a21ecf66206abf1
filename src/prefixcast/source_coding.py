"""Prefix-free codes: Kraft sums, D-ary Huffman trees, canonical codeword assignment.

A set of codeword lengths ``n_1, ..., n_M`` over a D-symbol alphabet admits a
prefix-free code exactly when the Kraft sum ``sum(D**-n_i)`` is at most 1.
This module computes that sum (directly and in closed form for consecutive
and arithmetic-progression length sets), builds optimal D-ary Huffman codes
from a probability mass function, and writes every code's and leader
placement's digits by one canonical, deterministic routine. A code, like a
placement, is its digit paths: each label maps to a tuple of int digits.
Kraft verdicts are decided in integer arithmetic; the float sum is for
display and for the closed forms. Each code or placement is checked once,
by its constructor, with :func:`_digit_paths`: integer digits in range,
then one :func:`prefix_violations` scan over the sorted paths.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass

PMF_TOL = 1e-9


class KraftViolation(ValueError):
    """The given lengths admit no prefix-free code (Kraft sum exceeds 1)."""


@dataclass(frozen=True)
class ProbabilityMassFunction:
    """Labeled probabilities: nonnegative, unique labels, summing to 1.

    ``entries``, in input order, is the one copy of them. Inputs that do not
    sum to 1 within ``PMF_TOL`` are rejected rather than renormalized, so
    upstream data errors surface immediately.
    """

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("probability mass function must have at least one entry")
        if len(dict(self.entries)) != len(self.entries):
            raise ValueError("duplicate labels in probability mass function")
        for label, p in self.entries:
            if math.isnan(p):
                raise ValueError(f"probability {p!r} for label {label!r} is not a number")
            if p < 0.0:
                raise ValueError(f"negative probability {p!r} for label {label!r}")
        total = math.fsum(p for _, p in self.entries)
        if abs(total - 1.0) > PMF_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @classmethod
    def from_pairs(cls, pairs) -> "ProbabilityMassFunction":
        return cls(tuple((str(label), float(p)) for label, p in pairs))

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CodeLengthSet:
    """Lengths of codewords, each at least 1, and the alphabet size D >= 2; all are
    integers by :func:`_integer` (int, bool or numpy integers), stored as int."""

    lengths: tuple[int, ...]
    alphabet_size: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet_size", _integer("alphabet size", self.alphabet_size, 2))
        if not self.lengths:
            raise ValueError("length set is empty")
        lengths = tuple(_integer("codeword length", n) for n in self.lengths)
        for n in lengths:
            if n < 1:
                raise ValueError(f"codeword lengths must be positive integers, got {n!r}")
        object.__setattr__(self, "lengths", lengths)

    def __len__(self) -> int:
        return len(self.lengths)


def _path_text(digits) -> str:
    """A digit path as text: its digits run together, dotted once one exceeds 9."""
    return ("" if not digits or max(digits) <= 9 else ".").join(map(str, digits))


@dataclass(frozen=True)
class PrefixCode:
    """A prefix-free assignment of codewords to labels.

    ``assignments`` maps each label to its codeword's digits, an int tuple,
    as a placement's ``leaders`` map each leader to its path. Construction
    validates, by :func:`_digit_paths`, that every codeword is a non-empty
    run of integer digits in range and that the code is prefix-free, so a
    ``PrefixCode`` value is a certificate that the assignment is actually
    decodable. It satisfies the Kraft inequality without a further check:
    the long digit strings that start with a length-n codeword are a D**-n
    share of all of them, and no string starts with two codewords of a
    prefix-free code.
    """

    alphabet_size: int
    assignments: dict[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphabet_size", _integer("alphabet size", self.alphabet_size, 2))
        if not self.assignments:
            raise ValueError("prefix code has no assignments")
        paths, clashes = _digit_paths(self.alphabet_size, self.assignments)
        if clashes:
            # name the first clashing pair in assignment order
            rank = {label: i for i, label in enumerate(paths)}
            i, j = min(sorted(map(rank.get, pair)) for pair in clashes)
            labels = list(paths)
            raise ValueError(
                f"codewords for {labels[i]!r} and {labels[j]!r} are not prefix-free"
            )
        object.__setattr__(self, "assignments", paths)

    def length_set(self) -> CodeLengthSet:
        return CodeLengthSet(tuple(map(len, self.assignments.values())), self.alphabet_size)


def _integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int of at least ``low``. An integer is what has ``__index__``
    (PEP 357): int, bool and numpy integers pass as int; 2.5, "2" and None do not."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")
    return n


def _probability(name: str, p: float) -> float:
    """``p`` unchanged, once it lies in [0, 1]; ``name`` says what it is the probability of."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} {p!r} outside [0, 1]")
    return p


def _digit_paths(d: int, digits_of: dict) -> tuple[dict, list]:
    """Each label's digits as ints, and the (ancestor, descendant) label pairs
    of :func:`prefix_violations`, by position in ``digits_of``. The one check
    of codewords and leader paths: a float or string digit is refused, not
    truncated, a path is non-empty, and each digit lies in 0..D-1."""
    paths = {}
    for label, digits in digits_of.items():
        try:
            path = tuple(map(operator.index, digits))
        except TypeError:
            raise ValueError(f"digits of {label!r} must be integers, got {digits!r}") from None
        if not path:
            raise ValueError(f"codeword for {label!r} is empty")
        for digit in path:
            if not 0 <= digit < d:
                raise ValueError(f"digit {digit} out of range for D={d} in {label!r}")
        paths[label] = path
    labels = list(paths)
    return paths, [(labels[i], labels[j]) for i, j in prefix_violations(list(paths.values()))]


def prefix_violations(paths) -> list[tuple[int, int]]:
    """Every index pair (i, j), i != j, where ``paths[i]`` is a prefix of ``paths[j]``.

    Paths are digit tuples; equal paths violate in both directions. Sorted
    lexicographically, every extension of a path forms one contiguous block
    right after it, so a single scan with a stack holding the current chain
    of nested prefixes finds every pair in O(M log M + violations). Pairs
    are returned in increasing order.
    """
    found = []
    chain: list[int] = []  # indices of nested prefixes, shortest first
    for j in sorted(range(len(paths)), key=paths.__getitem__):
        path = paths[j]
        while chain and path[: len(paths[chain[-1]])] != paths[chain[-1]]:
            chain.pop()
        for i in chain:
            found.append((i, j))
            if len(paths[i]) == len(path):
                found.append((j, i))
        chain.append(j)
    found.sort()
    return found


def kraft_sum(lengths: CodeLengthSet) -> float:
    """Sum of D**-n over the length set, as a float for display."""
    d = lengths.alphabet_size
    return math.fsum(d ** -n for n in lengths.lengths)


def satisfies_kraft(lengths: CodeLengthSet) -> bool:
    """Exact Kraft verdict: sum(D**(L-n_i)) <= D**L, with L the largest length.

    Decided without floats by walking the D-ary tree level by level and
    counting the nodes still free at the current depth, which is
    D**n * (1 - partial Kraft sum). The inequality holds exactly when that
    count never goes negative. Once it covers every codeword still to place
    it can no longer fail, so the integers stay below D times the number of
    codewords.
    """
    d = lengths.alphabet_size
    remaining = len(lengths)
    free, depth = 1, 0
    for n, count in sorted(Counter(lengths.lengths).items()):
        if free <= 0:
            return False
        while depth < n and free < remaining:
            free *= d
            depth += 1
        if free >= remaining:
            return True
        free -= count
        remaining -= count
    return False


def consecutive_lengths_sum(n1: int, m: int, d: int) -> float:
    """Closed-form Kraft sum for the consecutive lengths n1, n1+1, ..., n1+M-1.

    Equals ``D**-n1 * (D**-M - 1) / (D**-1 - 1)`` by the geometric series, and
    reduces to ``1 - 2**-M`` for D=2, n1=1.
    """
    n1, m = _integer("n1", n1, 1), _integer("M", m, 1)
    d = _integer("alphabet size", d, 2)
    return d ** -n1 * (d ** float(-m) - 1.0) / (d ** -1.0 - 1.0)


def arithmetic_progression_satisfies_kraft(
    n1: int, step: int, m: int, d: int
) -> tuple[float, bool]:
    """Kraft sum and predicate for lengths in arithmetic progression.

    The lengths are ``n1, n1+step, ..., n1+(M-1)*step``. Returns the
    geometric-series value of the sum and the exact verdict of
    :func:`satisfies_kraft` on the lengths. The predicate is reported
    rather than asserted; for n1 >= 1 and D >= 2 the sum is bounded by
    ``D**-n1 / (1 - D**-step) <= 1``, so increasing progressions always
    satisfy the inequality, which the test suite probes empirically.
    """
    n1, step, m = _integer("n1", n1, 1), _integer("step", step, 1), _integer("M", m, 1)
    d = _integer("alphabet size", d, 2)
    ratio = d ** float(-step)
    total = d ** -n1 * (1.0 - ratio**m) / (1.0 - ratio)
    lengths = CodeLengthSet(tuple(n1 + k * step for k in range(m)), d)
    return total, satisfies_kraft(lengths)


def kraft_alphabet_monotonicity(
    lengths: CodeLengthSet, d_prime: int, base_holds: bool | None = None
) -> bool:
    """Check the Kraft inequality at a larger alphabet size D' > D.

    Requires the inequality to already hold at the base alphabet size; each
    term D'**-n is then no larger than D**-n, so the result is always True
    when the precondition holds. ``base_holds`` is the base verdict of
    :func:`satisfies_kraft` when the caller has it, so it is not decided
    twice.
    """
    d_prime = _integer("D'", d_prime)
    if d_prime <= lengths.alphabet_size:
        raise ValueError(
            f"D'={d_prime} must exceed the base alphabet size {lengths.alphabet_size}"
        )
    if not (satisfies_kraft(lengths) if base_holds is None else base_holds):
        raise KraftViolation(
            "Kraft inequality fails at the base alphabet size; monotonicity undefined"
        )
    return satisfies_kraft(CodeLengthSet(lengths.lengths, d_prime))


def _canonical_digits(lengths, d: int):
    """``(index, digits)`` of the canonical code, in (length, index) order: each
    codeword is the previous one plus one in its last digit, with carry, then
    zero-padded, so the work is linear in the digits written. Kraft must hold,
    which leaves a digit below D-1 to carry into."""
    digits: list[int] = []
    # stable over ascending indices, so equal lengths keep index order
    for idx in sorted(range(len(lengths)), key=lengths.__getitem__):
        if digits:
            while digits[-1] == d - 1:
                digits.pop()
            digits[-1] += 1
        digits += [0] * (lengths[idx] - len(digits))
        yield idx, tuple(digits)


def code_from_lengths(
    lengths: CodeLengthSet, labels: tuple[str, ...] | None = None
) -> PrefixCode:
    """Canonical prefix code for a Kraft-satisfying length set.

    The codewords are those of :func:`_canonical_digits`, so ties in length are
    broken by input order. Raises :class:`KraftViolation` when no prefix
    code exists and ``ValueError`` when the label count is wrong or a label
    repeats; the count is checked first, and the repeat named is the first
    in (length, index) order.
    """
    if labels is None:
        labels = tuple(str(i) for i in range(len(lengths)))
    if len(labels) != len(lengths):
        raise ValueError(f"{len(labels)} labels for {len(lengths)} lengths")
    if not satisfies_kraft(lengths):
        raise KraftViolation(
            f"Kraft sum exceeds 1 (about {kraft_sum(lengths)!r}); no prefix code exists"
        )
    assignments: dict[str, tuple[int, ...]] = {}
    for idx, digits in _canonical_digits(lengths.lengths, lengths.alphabet_size):
        if labels[idx] in assignments:
            raise ValueError(f"label {labels[idx]!r} appears more than once")
        assignments[labels[idx]] = digits
    # re-emit in input-label order for stable downstream iteration
    return PrefixCode(lengths.alphabet_size, {label: assignments[label] for label in labels})


def huffman_lengths(pmf: ProbabilityMassFunction, d: int = 2) -> dict[str, int]:
    """Optimal D-ary codeword lengths for the given probabilities.

    Merge ties prefer the node created earliest, so results are reproducible.
    For D > 2 the symbol list is padded with zero-probability dummies until
    the count is congruent to 1 modulo D-1; dummies never appear in the
    result. A single symbol gets length 1 by convention, and so does every
    symbol when there are at most D of them (one merge takes them all), so
    the padding stays smaller than the symbol count.
    """
    d = _integer("alphabet size", d, 2)
    labels = pmf.labels()
    if len(labels) <= d:
        return {label: 1 for label in labels}

    # heap entries: (probability, creation order); creation order breaks ties
    heap = [(p, i) for i, (_, p) in enumerate(pmf.entries)]
    heap += [(0.0, i) for i in range(len(heap), len(heap) + (1 - len(heap)) % (d - 1))]
    heapq.heapify(heap)
    taken_by: list = [()] * len(heap)  # node id -> ids its merge took
    while len(heap) > 1:
        merged_p = 0.0
        taken = []
        for _ in range(d):
            p, node = heapq.heappop(heap)
            taken.append(node)
            merged_p += p
        heapq.heappush(heap, (merged_p, len(taken_by)))
        taken_by.append(taken)

    # a merge's id exceeds its children's, so one walk down from the root sets every depth
    depth = [0] * len(taken_by)
    for node in reversed(range(len(taken_by))):
        for child in taken_by[node]:
            depth[child] = depth[node] + 1
    return {label: depth[i] for i, label in enumerate(labels)}


def _huffman_paths(pmf: ProbabilityMassFunction, d: int) -> dict[str, tuple[int, ...]]:
    """Each label's canonical Huffman digits, in label order."""
    lengths = huffman_lengths(pmf, d)
    labels = pmf.labels()
    digits = dict(_canonical_digits([lengths[label] for label in labels], d))
    return {label: digits[i] for i, label in enumerate(labels)}


def huffman_code(pmf: ProbabilityMassFunction, d: int = 2) -> PrefixCode:
    """Optimal D-ary prefix code, canonically materialized.

    Expected length is minimal over all D-ary prefix codes for ``pmf`` and
    satisfies ``H_D(pmf) <= L < H_D(pmf) + 1`` for two or more symbols.
    The codewords are those :func:`code_from_lengths` gives the Huffman length
    profile, so equal inputs yield identical codes.
    """
    return PrefixCode(d, _huffman_paths(pmf, d))


def expected_length(code: PrefixCode, pmf: ProbabilityMassFunction) -> float:
    """Probability-weighted mean codeword length, correctly rounded by fsum."""
    try:
        return math.fsum(p * len(code.assignments[label]) for label, p in pmf.entries)
    except KeyError as err:
        raise KeyError(f"code has no codeword for label {err.args[0]!r}") from None


def shannon_entropy(pmf: ProbabilityMassFunction, base: float = 2.0) -> float:
    """Entropy of the pmf in the given log base, with 0*log(0) = 0."""
    if not base > 1.0:
        raise ValueError(f"log base must exceed 1, got {base}")
    if math.isinf(base):
        raise ValueError("log base must be finite, got inf")
    return _entropy((p for _, p in pmf.entries), base)


def _entropy(probs, base: float) -> float:
    """-sum p*log(p) over the positive probabilities, in the given log base."""
    return -math.fsum(p * math.log(p, base) for p in probs if p > 0.0)
