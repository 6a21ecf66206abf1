"""Prefix-free codes: Kraft sums, D-ary Huffman trees, canonical codeword assignment.

A set of codeword lengths ``n_1, ..., n_M`` over a D-symbol alphabet admits a
prefix-free code exactly when the Kraft sum ``sum(D**-n_i)`` is at most 1.
This module computes that sum (directly and in closed form for consecutive
and arithmetic-progression length sets), builds optimal D-ary Huffman codes
from a probability mass function, and materializes codewords canonically so
that equal inputs always produce byte-identical codes. Kraft verdicts are
decided in integer arithmetic; the float sum is for display and for the
closed forms. Prefix-freeness is checked in one place,
:func:`prefix_violations`, by a single scan over the sorted paths.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

PMF_TOL = 1e-9


class KraftViolation(ValueError):
    """The given lengths admit no prefix-free code (Kraft sum exceeds 1)."""


@dataclass(frozen=True)
class ProbabilityMassFunction:
    """Labeled probabilities: nonnegative, unique labels, summing to 1.

    Inputs that do not sum to 1 within ``PMF_TOL`` are rejected rather than
    renormalized, so upstream data errors surface immediately.
    """

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("probability mass function must have at least one entry")
        index = dict(self.entries)
        if len(index) != len(self.entries):
            raise ValueError("duplicate labels in probability mass function")
        for label, p in self.entries:
            if math.isnan(p):
                raise ValueError(f"probability {p!r} for label {label!r} is not a number")
            if p < 0.0:
                raise ValueError(f"negative probability {p!r} for label {label!r}")
        total = math.fsum(p for _, p in self.entries)
        if abs(total - 1.0) > PMF_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_pairs(cls, pairs) -> "ProbabilityMassFunction":
        return cls(tuple((str(label), float(p)) for label, p in pairs))

    @classmethod
    def from_dict(cls, mapping) -> "ProbabilityMassFunction":
        return cls.from_pairs(mapping.items())

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def probability(self, label: str) -> float:
        return self._index[label]

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CodeLengthSet:
    """Codeword lengths plus the channel alphabet size D."""

    lengths: tuple[int, ...]
    alphabet_size: int = 2

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        if not self.lengths:
            raise ValueError("length set is empty")
        for n in self.lengths:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"codeword lengths must be positive integers, got {n!r}")

    def __len__(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class Codeword:
    """A sequence of digits, each in ``{0, ..., D-1}`` for the owning code's D."""

    digits: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        if all(d <= 9 for d in self.digits):
            return "".join(str(d) for d in self.digits)
        return ".".join(str(d) for d in self.digits)


@dataclass(frozen=True)
class PrefixCode:
    """A prefix-free assignment of codewords to labels.

    Construction validates digit range and prefix-freeness (by
    :func:`prefix_violations`), so a ``PrefixCode`` value is a certificate
    that the assignment is actually decodable. It satisfies the Kraft
    inequality without a further check: the long digit strings that start
    with a length-n codeword are a D**-n share of all of them, and no string
    starts with two codewords of a prefix-free code.
    """

    alphabet_size: int
    assignments: dict[str, Codeword]

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        if not self.assignments:
            raise ValueError("prefix code has no assignments")
        for label, word in self.assignments.items():
            for d in word.digits:
                if not (0 <= d < self.alphabet_size):
                    raise ValueError(f"digit {d} out of range for D={self.alphabet_size} in {label!r}")
        clashes = prefix_violations([word.digits for word in self.assignments.values()])
        if clashes:
            # name the first clashing pair in assignment order
            i, j = min((min(pair), max(pair)) for pair in clashes)
            labels = list(self.assignments)
            raise ValueError(
                f"codewords for {labels[i]!r} and {labels[j]!r} are not prefix-free"
            )

    def lengths(self) -> dict[str, int]:
        return {label: word.length for label, word in self.assignments.items()}

    def length_set(self) -> CodeLengthSet:
        return CodeLengthSet(
            tuple(word.length for word in self.assignments.values()), self.alphabet_size
        )


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
    if n1 < 1 or m < 1:
        raise ValueError("n1 and M must be >= 1")
    if d < 2:
        raise ValueError("alphabet size must be >= 2")
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
    if n1 < 1 or m < 1 or step < 1:
        raise ValueError("n1, step and M must be >= 1")
    if d < 2:
        raise ValueError("alphabet size must be >= 2")
    ratio = d ** float(-step)
    total = d ** -n1 * (1.0 - ratio**m) / (1.0 - ratio)
    lengths = CodeLengthSet(tuple(n1 + k * step for k in range(m)), d)
    return total, satisfies_kraft(lengths)


def kraft_alphabet_monotonicity(lengths: CodeLengthSet, d_prime: int) -> bool:
    """Check the Kraft inequality at a larger alphabet size D' > D.

    Requires the inequality to already hold at the base alphabet size; each
    term D'**-n is then no larger than D**-n, so the result is always True
    when the precondition holds.
    """
    if d_prime <= lengths.alphabet_size:
        raise ValueError(
            f"D'={d_prime} must exceed the base alphabet size {lengths.alphabet_size}"
        )
    if not satisfies_kraft(lengths):
        raise KraftViolation(
            "Kraft inequality fails at the base alphabet size; monotonicity undefined"
        )
    return satisfies_kraft(CodeLengthSet(lengths.lengths, d_prime))


def code_from_lengths(
    lengths: CodeLengthSet, labels: tuple[str, ...] | None = None
) -> PrefixCode:
    """Canonical prefix code for a Kraft-satisfying length set.

    Lengths are sorted ascending (ties broken by input order). Each codeword
    is the previous one plus one in its last digit, with carry, padded with
    zero digits to its length, so the work is linear in the digits written.
    Raises :class:`KraftViolation` when no prefix code exists and
    ``ValueError`` when the label count is wrong or a label repeats; the
    count is checked first.
    """
    if labels is None:
        labels = tuple(str(i) for i in range(len(lengths)))
    if len(labels) != len(lengths):
        raise ValueError(f"{len(labels)} labels for {len(lengths)} lengths")
    if not satisfies_kraft(lengths):
        raise KraftViolation(
            f"Kraft sum exceeds 1 (about {kraft_sum(lengths)!r}); no prefix code exists"
        )
    d = lengths.alphabet_size
    order = sorted(range(len(lengths)), key=lambda i: (lengths.lengths[i], i))
    assignments: dict[str, Codeword] = {}
    digits: list[int] = []
    for idx in order:
        if digits:
            # Kraft holds, so a digit below d - 1 is left to carry into
            while digits[-1] == d - 1:
                digits.pop()
            digits[-1] += 1
        digits += [0] * (lengths.lengths[idx] - len(digits))
        if labels[idx] in assignments:
            raise ValueError(f"label {labels[idx]!r} appears more than once")
        assignments[labels[idx]] = Codeword(tuple(digits))
    # re-emit in input-label order for stable downstream iteration
    ordered = {label: assignments[label] for label in labels}
    return PrefixCode(d, ordered)


def huffman_lengths(pmf: ProbabilityMassFunction, d: int = 2) -> dict[str, int]:
    """Optimal D-ary codeword lengths for the given probabilities.

    Merge ties prefer the node created earliest, so results are reproducible.
    For D > 2 the symbol list is padded with zero-probability dummies until
    the count is congruent to 1 modulo D-1; dummies never appear in the
    result. A single symbol gets length 1 by convention, and so does every
    symbol when there are at most D of them (one merge takes them all), so
    the padding stays smaller than the symbol count.
    """
    if d < 2:
        raise ValueError(f"alphabet size must be >= 2, got {d}")
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


def huffman_code(pmf: ProbabilityMassFunction, d: int = 2) -> PrefixCode:
    """Optimal D-ary prefix code, canonically materialized.

    Expected length is minimal over all D-ary prefix codes for ``pmf`` and
    satisfies ``H_D(pmf) <= L < H_D(pmf) + 1`` for two or more symbols.
    Codewords come from :func:`code_from_lengths` applied to the Huffman
    length profile, so equal inputs yield identical codes.
    """
    lengths = huffman_lengths(pmf, d)
    labels = pmf.labels()
    length_set = CodeLengthSet(tuple(lengths[label] for label in labels), d)
    return code_from_lengths(length_set, labels)


def expected_length(code: PrefixCode, pmf: ProbabilityMassFunction) -> float:
    """Probability-weighted mean codeword length, correctly rounded by fsum."""
    try:
        return math.fsum(p * code.assignments[label].length for label, p in pmf.entries)
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
