"""Fault-tolerant fusion of interval estimates from n sensors, at most f faulty.

Four views of the same question, what range can the true value be in:

* ``m_function``: the smallest closed interval containing every point where
  at least n-f of the intervals agree (an endpoint sweep).
* ``overlap_function``: the full step function x -> number of intervals
  containing x, as its value at every breakpoint and on every gap between
  two; one sort and running sums of endpoint multiplicities, O(n log n).
* ``n_function``: the same envelope as M but derived from the overlap
  function, giving an independent route to the identical answer.
* ``s_function``: order statistics, the (f+1)-th largest left endpoint and
  (f+1)-th smallest right endpoint; wider than M but 1-Lipschitz in the
  endpoints where M can jump discontinuously.

Intervals are closed; touching at a single point counts as overlap. An
:class:`IntervalSet` holds its inputs as two float columns in input order,
``los`` and ``his``, and every function here reads those columns; its
``intervals``, the same inputs as :class:`Interval` objects, are built only
when read.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, le, sub

from .source_coding import _integer


def _endpoints(lo, hi) -> tuple:
    """``(float(lo), float(hi))``, refused unless both are finite and lo <= hi:
    the one check of an interval's endpoints."""
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"endpoints must be finite, got [{lo!r}, {hi!r}]")
    if lo > hi:
        raise ValueError(f"empty interval: lo {lo!r} > hi {hi!r}")
    return lo, hi


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; degenerate points (lo == hi) allowed."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _endpoints(self.lo, self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo


def _interval(item) -> Interval:
    """``item``, an :class:`Interval` or a ``(lo, hi)`` pair, as an Interval."""
    if isinstance(item, Interval):
        return item
    try:
        pair = len(item) == 2
    except TypeError:
        pair = False
    if not pair:
        raise ValueError(f"interval set item {item!r} is not a (lo, hi) pair")
    return Interval(item[0], item[1])


@dataclass(frozen=True)
class Inconsistent:
    """Order-statistic bounds crossed: more than f faults, or bad inputs.

    Carries the crossed bounds (a > b) so callers can see how badly the
    readings disagree; this is a result, not an exception.
    """

    a: float
    b: float


@dataclass(frozen=True, init=False)
class IntervalSet:
    """n sensor intervals of which at most f may be faulty; the width of
    their hull, which holds every derived interval, must be a finite float.

    Built from :class:`Interval` objects or ``(lo, hi)`` pairs, refusing any
    other item, and held as two float columns in input order: input i is
    [``los[i]``, ``his[i]``].
    """

    los: tuple
    his: tuple
    f: int

    def __init__(self, intervals, f: int):
        items = tuple(intervals)
        try:  # an Interval has no len, so Intervals take the walk below
            pairs = set(map(len, items)) == {2}
            los = tuple(map(float, map(itemgetter(0), items)))
            his = tuple(map(float, map(itemgetter(1), items)))
            checked = pairs and all(map(math.isfinite, chain(los, his))) and all(map(le, los, his))
        except (TypeError, ValueError, LookupError, OverflowError):
            checked = False
        if not checked:  # the first bad item in input order raises its error
            ivs = list(map(_interval, items))
            los, his = tuple(iv.lo for iv in ivs), tuple(iv.hi for iv in ivs)
        if not los:
            raise ValueError("interval set is empty")
        f = _integer("fault bound", f)
        if not 0 <= f < len(los):
            raise ValueError(f"fault bound {f} outside 0..{len(los) - 1} for {len(los)} intervals")
        lo, hi = min(los), max(his)
        if math.isinf(hi - lo):
            raise ValueError(f"interval hull [{lo!r}, {hi!r}] is too wide for a float")
        self.__dict__.update(los=los, his=his, f=f)

    @classmethod
    def from_pairs(cls, pairs, f: int) -> "IntervalSet":
        return cls(pairs, f)

    # built on first read: no fusion function reads it
    @cached_property
    def intervals(self) -> tuple:
        return tuple(map(Interval, self.los, self.his))

    @property
    def n(self) -> int:
        return len(self.los)

    @property
    def quorum(self) -> int:
        return self.n - self.f


def agreement_regions(s: IntervalSet) -> tuple:
    """Maximal closed intervals where at least n-f inputs overlap.

    Endpoint sweep in one pass: starts sort before ends at equal x, so
    closed intervals touching at a point count as overlapping there. A
    region opens when the count reaches n-f and closes when it falls from
    it. A run of equal endpoints is named by its first, which fixes the
    sign of a zero. Returns disjoint regions in increasing order; empty
    tuple when no quorum point exists.
    """
    k = s.quorum
    regions = []
    count = 0
    at = None
    for x, end in sorted(chain(zip(s.los, repeat(0)), zip(s.his, repeat(1)))):
        if x != at:
            at = x
        if end:
            count -= 1
            if count == k - 1:
                regions.append(Interval(start, at))
        else:
            count += 1
            if count == k:
                start = at
    return tuple(regions)


def m_function(s: IntervalSet):
    """Smallest closed interval containing every (n-f)-subset intersection.

    A point belongs to some intersection of n-f inputs exactly when at
    least n-f inputs contain it, so the answer is the envelope of the
    agreement regions. Returns None when no such point exists.
    """
    regions = agreement_regions(s)
    if not regions:
        return None
    return Interval(regions[0].lo, regions[-1].hi)


@dataclass(frozen=True)
class OverlapFunction:
    """The step function x -> number of closed intervals containing x.

    Values at the breakpoints themselves can exceed the neighboring open
    segments (touching endpoints count), so both are stored: ``at_points``
    holds the value at each breakpoint and ``between[i]`` the constant value
    on the open segment (breakpoints[i], breakpoints[i+1]).
    """

    n: int
    breakpoints: tuple
    at_points: tuple
    between: tuple


def overlap_function(s: IntervalSet) -> OverlapFunction:
    """Materialize the overlap count at every breakpoint and gap.

    One sort and one cumulative pass, O(n log n) in all: an interval
    contains x iff lo <= x and not hi < x, so the count at x is
    #{lo <= x} - #{hi < x}; no endpoint lies inside the gap (a, b), so an
    interval covers it iff lo <= a < hi, giving #{lo <= a} - #{hi <= a}.
    Running sums of endpoint multiplicities over the sorted breakpoints
    give #{lo <= x} and #{hi <= x}; #{hi < x} is the latter less the
    multiplicity of x among the ``hi`` values. The set union keeps the
    first zero among the ``lo`` values in input order, else among the
    ``hi`` values, as the zero breakpoint.
    """
    los, his = s.los, s.his
    xs = sorted(set(los) | set(his))
    lo_mult, hi_mult = Counter(los), Counter(his)
    # .get stays in C; Counter's __missing__ for an absent key runs in Python
    hi_at = list(map(hi_mult.get, xs, repeat(0)))
    lo_upto = accumulate(map(lo_mult.get, xs, repeat(0)))
    covering = tuple(map(sub, lo_upto, accumulate(hi_at)))
    at_points = tuple(map(add, covering, hi_at))
    return OverlapFunction(
        n=s.n, breakpoints=tuple(xs), at_points=at_points, between=covering[:-1]
    )


def n_function(s: IntervalSet):
    """Envelope of {x : overlap(x) >= n-f}, via the overlap step function.

    Same value as :func:`m_function` by construction of the overlap count;
    comes from a different code path so each can audit the other. Returns
    None when the level set is empty.
    """
    omega = overlap_function(s)
    k = s.quorum
    qualifying = [
        x for x, c in zip(omega.breakpoints, omega.at_points) if c >= k
    ]
    # open segments never qualify without their endpoints qualifying too:
    # a segment's count is bounded by the counts at both bounding breakpoints
    if not qualifying:
        return None
    return Interval(qualifying[0], qualifying[-1])


def s_function(s: IntervalSet):
    """Order-statistic fusion: [(f+1)-th largest lo, (f+1)-th smallest hi].

    Returns :class:`Inconsistent` with the crossed bounds when a > b, which
    signals more than f faults. Unlike M, both bounds move by at most eps
    when every input endpoint moves by at most eps.
    """
    los = sorted(s.los, reverse=True)
    his = sorted(s.his)
    a = los[s.f]
    b = his[s.f]
    if a > b:
        return Inconsistent(a, b)
    return Interval(a, b)


@dataclass(frozen=True)
class FusionComparison:
    """M, N and S on one input, with widths and containment relations."""

    m_result: Interval | None
    n_result: Interval | None
    s_result: Interval | Inconsistent
    m_width: float | None
    n_width: float | None
    s_width: float | None
    m_equals_n: bool
    m_within_s: bool | None  # None when M is empty or S inconsistent


def fusion_compare(s: IntervalSet) -> FusionComparison:
    """Evaluate every fusion function on the same input, side by side."""
    m = m_function(s)
    n = n_function(s)
    sf = s_function(s)
    m_within_s = None
    if m is not None and isinstance(sf, Interval):
        m_within_s = sf.lo <= m.lo and m.hi <= sf.hi
    return FusionComparison(
        m_result=m,
        n_result=n,
        s_result=sf,
        m_width=m.width if m is not None else None,
        n_width=n.width if n is not None else None,
        s_width=sf.width if isinstance(sf, Interval) else None,
        m_equals_n=m == n,
        m_within_s=m_within_s,
    )
