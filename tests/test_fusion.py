import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefixcast.fileio import parse_intervals
from prefixcast.fusion import (
    Inconsistent,
    Interval,
    IntervalSet,
    agreement_regions,
    fusion_compare,
    m_function,
    n_function,
    overlap_function,
    s_function,
)

from oracles import fuse_marzullo_reference, overlap_count_at, overlap_direct

WORKED = IntervalSet.from_pairs([(8, 12), (11, 13), (14, 15)], f=1)


def random_interval_set(rng, n_max=10, f_max=4):
    n = rng.randint(1, n_max)
    f = rng.randint(0, min(f_max, n - 1))
    ivs = []
    for _ in range(n):
        # rational endpoints on a coarse grid force plenty of exact ties
        lo = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 4]))
        width = Fraction(rng.randint(0, 32), rng.choice([1, 2, 4]))
        ivs.append((float(lo), float(lo + width)))
    return IntervalSet.from_pairs(ivs, f)


# ------------------------------------------------------------------ types


def test_interval_validation():
    assert Interval(1.0, 1.0).width == 0.0
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, float("inf"))


def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet.from_pairs([], f=0)
    with pytest.raises(ValueError):
        IntervalSet.from_pairs([(0, 1)], f=1)
    with pytest.raises(ValueError):
        IntervalSet.from_pairs([(0, 1), (2, 3)], f=-1)
    s = IntervalSet.from_pairs([(0, 1), (2, 3)], f=1)
    assert s.n == 2 and s.quorum == 1


# ------------------------------------------------------------------ M


def test_m_worked_example():
    assert m_function(WORKED) == Interval(11.0, 12.0)


def test_m_single_interval():
    s = IntervalSet.from_pairs([(3.5, 7.25)], f=0)
    assert m_function(s) == Interval(3.5, 7.25)


def test_m_disjoint_all_required_is_empty():
    s = IntervalSet.from_pairs([(0, 1), (2, 3)], f=0)
    assert m_function(s) is None


def test_m_envelope_spans_fragmented_agreement():
    # two separate quorum islands: envelope covers both, regions stay split
    s = IntervalSet.from_pairs([(0, 2), (1, 3), (10, 12), (11, 13)], f=2)
    assert m_function(s) == Interval(1.0, 12.0)
    assert agreement_regions(s) == (Interval(1.0, 2.0), Interval(11.0, 12.0))


def test_m_touching_endpoints_count():
    s = IntervalSet.from_pairs([(0, 1), (1, 2)], f=0)
    assert m_function(s) == Interval(1.0, 1.0)


def test_m_matches_subset_oracle_random():
    rng = random.Random(20260814)
    for _ in range(600):
        s = random_interval_set(rng)
        got = m_function(s)
        pairs = [(iv.lo, iv.hi) for iv in s.intervals]
        want = fuse_marzullo_reference(pairs, s.f)
        if not want:
            assert got is None
        else:
            assert got == Interval(want[0][0], want[-1][1])
            regions = agreement_regions(s)
            assert [(r.lo, r.hi) for r in regions] == want


# ------------------------------------------------------------------ omega


def test_overlap_worked_values():
    omega = overlap_function(WORKED)
    assert omega.breakpoints == (8.0, 11.0, 12.0, 13.0, 14.0, 15.0)
    assert omega.at_points == (1, 2, 2, 1, 1, 1)
    assert omega.between == (1, 2, 1, 0, 1)


def test_overlap_identical_intervals():
    omega = overlap_function(IntervalSet.from_pairs([(2, 4)] * 5, f=0))
    assert omega.breakpoints == (2.0, 4.0)
    assert omega.between[0] == 5


def test_overlap_at_touching_endpoint_counts_both():
    s = IntervalSet.from_pairs([(0, 1), (1, 2)], f=0)
    omega = overlap_function(s)
    assert omega.breakpoints == (0.0, 1.0, 2.0)
    assert omega.at_points[1] == 2
    assert omega.between == (1, 1)


def test_overlap_matches_pointwise_oracle():
    rng = random.Random(31337)
    for _ in range(200):
        s = random_interval_set(rng, n_max=8)
        omega = overlap_function(s)
        pairs = [(iv.lo, iv.hi) for iv in s.intervals]
        bp = omega.breakpoints
        for x, count in zip(bp, omega.at_points):
            assert count == overlap_count_at(pairs, x)
        for a, b, count in zip(bp, bp[1:], omega.between):
            assert count == overlap_count_at(pairs, (a + b) / 2)
        assert len(omega.between) == len(bp) - 1
        assert max(omega.at_points) <= s.n


# endpoints on a coarse grid, zero in both signs: ties, touching intervals
# and points (lo == hi) all occur often
GRID = [-2.0, -1.5, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0]
ENDPOINTS = st.sampled_from(GRID)


def _closed(ends):
    return [(a, b) if a <= b else (b, a) for a, b in ends]


@st.composite
def endpoint_pairs(draw):
    """Closed [lo, hi] pairs with lo <= hi, drawn from ``ENDPOINTS``."""
    ends = draw(st.lists(st.tuples(ENDPOINTS, ENDPOINTS), min_size=1, max_size=12))
    return _closed(ends)


def seeded_endpoint_pairs(n, seed):
    """n closed pairs drawn from ``ENDPOINTS`` by a seeded generator; at
    n = 500 every breakpoint is the endpoint of dozens of intervals."""
    rng = random.Random(seed)
    return _closed((rng.choice(GRID), rng.choice(GRID)) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(endpoint_pairs())
@example([(0.0, 1.0), (-0.0, 0.0), (-1.0, -0.0)])
@example([(-1.0, -0.0), (0.5, 0.5), (-0.0, 0.0)])
@example([(0.0, 0.0), (0.0, 0.0)])
# equal endpoints in their dozens, both zero signs among them
@example(seeded_endpoint_pairs(500, 20261020))
def test_overlap_matches_direct_count(pairs):
    omega = overlap_function(IntervalSet.from_pairs(pairs, f=0))
    breakpoints, at_points, between = overlap_direct(pairs)
    # repr tells -0.0 from 0.0, which == does not
    assert [repr(x) for x in omega.breakpoints] == [repr(x) for x in breakpoints]
    assert omega.at_points == at_points
    assert omega.between == between


@settings(max_examples=300, deadline=None)
@given(endpoint_pairs(), st.integers(0, 11))
@example([(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)], 1)
@example([(-0.0, 1.0), (0.0, 0.0), (-1.0, 0.0)], 0)
@example(seeded_endpoint_pairs(500, 20261020), 7)
def test_parsed_paired_and_interval_sets_are_one_set(pairs, k):
    f = k % len(pairs)
    parsed = parse_intervals("".join(f"{lo!r} {hi!r}\n" for lo, hi in pairs))
    assert all(type(x) is float for pair in parsed for x in pair)
    sets = [IntervalSet(parsed, f), IntervalSet.from_pairs(pairs, f),
            IntervalSet([Interval(lo, hi) for lo, hi in pairs], f)]
    # repr tells -0.0 from 0.0, which == does not
    for read in (lambda s: s.los, lambda s: s.his, lambda s: s.intervals,
                 overlap_function, fusion_compare):
        assert len({repr(read(s)) for s in sets}) == 1
    assert repr(sets[0].intervals) == repr(tuple(Interval(lo, hi) for lo, hi in pairs))


# ------------------------------------------------------------------ N


def test_n_worked_example():
    assert n_function(WORKED) == Interval(11.0, 12.0)


def test_n_with_max_fault_bound_is_union_envelope():
    s = IntervalSet.from_pairs([(0, 1), (5, 6), (2, 9)], f=2)
    assert n_function(s) == Interval(0.0, 9.0)


def test_n_disjoint_is_empty():
    assert n_function(IntervalSet.from_pairs([(0, 1), (2, 3)], f=0)) is None


def test_n_equals_m_everywhere():
    rng = random.Random(5551212)
    for _ in range(400):
        s = random_interval_set(rng)
        assert n_function(s) == m_function(s)


# ------------------------------------------------------------------ S


def test_s_worked_example():
    assert s_function(WORKED) == Interval(11.0, 13.0)


def test_s_identical_intervals():
    for f in range(4):
        s = IntervalSet.from_pairs([(2, 4)] * 5, f=f)
        assert s_function(s) == Interval(2.0, 4.0)


def test_s_inconsistent_on_disjoint():
    out = s_function(IntervalSet.from_pairs([(0, 1), (10, 11)], f=0))
    assert out == Inconsistent(a=10.0, b=1.0)


def test_s_contains_m_when_consistent():
    rng = random.Random(777)
    for _ in range(300):
        s = random_interval_set(rng)
        m = m_function(s)
        sf = s_function(s)
        if m is not None and isinstance(sf, Interval):
            assert sf.lo <= m.lo and m.hi <= sf.hi


def test_s_lipschitz_in_endpoints():
    rng = random.Random(2718)
    for _ in range(300):
        n = rng.randint(2, 8)
        f = rng.randint(0, n - 1)
        base = []
        for _ in range(n):
            lo = rng.uniform(-20, 20)
            base.append((lo, lo + rng.uniform(0.5, 10)))
        eps = rng.uniform(0, 0.1)
        moved = [
            (lo + rng.uniform(-eps, eps), hi + rng.uniform(-eps, eps))
            for lo, hi in base
        ]
        a = s_function(IntervalSet.from_pairs(base, f))
        b = s_function(IntervalSet.from_pairs(moved, f))
        a_pair = (a.a, a.b) if isinstance(a, Inconsistent) else (a.lo, a.hi)
        b_pair = (b.a, b.b) if isinstance(b, Inconsistent) else (b.lo, b.hi)
        assert abs(a_pair[0] - b_pair[0]) <= eps + 1e-12
        assert abs(a_pair[1] - b_pair[1]) <= eps + 1e-12


def test_m_instability_exhibit():
    # inputs 3e-4 apart, outputs more than 4 apart: M has no Lipschitz bound
    before = IntervalSet.from_pairs(
        [(0, 10), (5, 15), (9.9995, 20), (14, 30)], f=1
    )
    after = IntervalSet.from_pairs(
        [(0, 9.9992), (5, 15), (9.9995, 20), (14, 30)], f=1
    )
    m_before = m_function(before)
    m_after = m_function(after)
    assert m_before == Interval(9.9995, 15.0)
    assert m_after == Interval(14.0, 15.0)
    assert abs(m_before.lo - m_after.lo) > 1.0


def test_containment_soundness_with_planted_truth():
    rng = random.Random(161803)
    for _ in range(500):
        n = rng.randint(2, 10)
        f = rng.randint(0, min(4, n - 1))
        truth = rng.uniform(-50, 50)
        faulty = rng.randint(0, f)
        ivs = []
        for i in range(n):
            if i < faulty:
                # an interval strictly away from the truth
                off = rng.uniform(1.0, 20.0)
                if rng.random() < 0.5:
                    ivs.append((truth + off, truth + off + rng.uniform(0, 5)))
                else:
                    ivs.append((truth - off - rng.uniform(0, 5), truth - off))
            else:
                lo = truth - rng.uniform(0, 10)
                hi = truth + rng.uniform(0, 10)
                ivs.append((lo, hi))
        rng.shuffle(ivs)
        s = IntervalSet.from_pairs(ivs, f)
        m = m_function(s)
        assert m is not None and m.lo <= truth <= m.hi
        sf = s_function(s)
        assert isinstance(sf, Interval) and sf.lo <= truth <= sf.hi


# ------------------------------------------------------------------ compare


def test_compare_worked_example():
    rep = fusion_compare(WORKED)
    assert rep.m_result == Interval(11.0, 12.0)
    assert rep.n_result == Interval(11.0, 12.0)
    assert rep.s_result == Interval(11.0, 13.0)
    assert (rep.m_width, rep.n_width, rep.s_width) == (1.0, 1.0, 2.0)
    assert rep.m_equals_n
    assert rep.m_within_s


def test_compare_identical_intervals():
    rep = fusion_compare(IntervalSet.from_pairs([(1, 3)] * 4, f=2))
    assert rep.m_result == rep.n_result == rep.s_result == Interval(1.0, 3.0)


def test_compare_random_cross_identity():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(1, 6)
        f = rng.randint(0, min(2, n - 1))
        ivs = []
        for _ in range(n):
            lo = rng.uniform(-10, 10)
            ivs.append((lo, lo + rng.uniform(0, 8)))
        rep = fusion_compare(IntervalSet.from_pairs(ivs, f))
        assert rep.m_equals_n
        if rep.m_within_s is not None:
            assert rep.m_within_s
