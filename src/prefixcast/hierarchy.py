"""Leader placement in complete D-ary trees and path-reliability formulas.

Nodes of a complete D-ary tree are addressed by digit paths from the root
(the root is the empty path, its children are (0,), (1,), ...). A placement
is its leaders' paths, and its tree is the complete D-ary tree as deep as
the longest one. Placing leaders at the codeword paths of an optimal prefix
code makes every root-to-leader path prefix-free, so a message descending
toward one leader never travels through another, and simultaneously
minimizes the expected leader depth weighted by importance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .source_coding import (
    ProbabilityMassFunction,
    _digit_paths,
    _huffman_paths,
    _integer,
    _probability,
)


def total_nodes(d: int, n_max: int) -> int:
    """Node count of the complete D-ary tree of depth n_max.

    Geometric series (D**(n_max+1) - 1) / (D - 1); at D=2 this is the
    familiar 2**(n_max+1) - 1.
    """
    d, n_max = _integer("arity", d, 2), _integer("depth", n_max, 0)
    return (d ** (n_max + 1) - 1) // (d - 1)


@dataclass(frozen=True)
class LevelLeaderCounts:
    """s_j = number of leaders elected at depth j, for j = 1..n_max, in 0..D**j.

    D and every s_j are integers by :func:`_integer`, stored as int; a
    fractional count is refused, not truncated."""

    counts: tuple[int, ...]
    arity: int

    def __post_init__(self):
        d = _integer("arity", self.arity, 2)
        counts = tuple(_leader_count(s, j, d) for j, s in enumerate(self.counts, start=1))
        object.__setattr__(self, "arity", d)
        object.__setattr__(self, "counts", counts)

    @property
    def n_max(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class SecurityReport:
    """Outcome of auditing an assignment for path containment."""

    secure: bool
    violations: tuple  # (ancestor label, descendant label) pairs


@dataclass(frozen=True)
class LeaderAssignment:
    """Leaders at digit-path addresses of a D-ary tree, with importances.

    :attr:`depth` is the longest path. Construction checks the paths as a
    code's codewords are checked, by :func:`_digit_paths`: integer digits in
    0..D-1, stored as int, and the no-root rule (a depth-0 leader would sit
    on every other leader's path). Prefix-freeness between leaders, the
    point of the placement, is decided once there into :attr:`security`
    rather than hard-enforced, so a hand-built faulty assignment can be
    inspected instead of rejected.
    """

    arity: int
    leaders: dict  # label -> digit path tuple
    importance: ProbabilityMassFunction
    depth: int = field(init=False)
    security: SecurityReport = field(init=False, repr=False, compare=False)
    """Whether any leader lies on the root path of another.

    A violating pair (a, b) means a's path is a proper prefix of b's, i.e.
    traffic addressed to b passes through a; equal paths violate in both
    directions. Pairs come from one sorted scan by :func:`prefix_violations`
    and are listed in label order, by ancestor and then by descendant.
    """

    def __post_init__(self):
        d = _integer("arity", self.arity, 2)
        if set(self.leaders) != set(self.importance.labels()):
            raise ValueError("leader labels and importance labels differ")
        paths, pairs = _digit_paths(d, self.leaders)
        object.__setattr__(self, "arity", d)
        object.__setattr__(self, "leaders", paths)
        object.__setattr__(self, "depth", max(map(len, paths.values())))
        object.__setattr__(self, "security", SecurityReport(not pairs, tuple(sorted(pairs))))

    def expected_depth(self) -> float:
        return math.fsum(
            p * len(self.leaders[label]) for label, p in self.importance.entries
        )

    def depth_kraft_sum(self) -> float:
        """Kraft sum of the leader depths, which construction has checked."""
        d = self.arity
        return math.fsum(d ** -len(p) for p in self.leaders.values())


def _leader_count(s_j, j: int, d: int) -> int:
    """s_j as an int in 0..D**j, the node count at depth j."""
    s_j = _integer("s_j", s_j)
    if not 0 <= s_j <= d**j:
        raise ValueError(f"s_j={s_j} outside 0..{d**j} at depth {j}")
    return s_j


def node_selection_probability(s_j: int, j: int, d: int) -> float:
    """Probability a given depth-j node is one of the s_j elected leaders."""
    d, j = _integer("arity", d, 2), _integer("depth", j, 0)
    return _leader_count(s_j, j, d) / d**j


def level_leader_probability(s_j: int, j: int, d: int, n_max: int) -> float:
    """Probability a uniformly random tree node is a depth-j leader.

    s_j elected nodes out of the whole tree's node count. The level j is
    needed to validate s_j against the D**j nodes available at that depth.
    """
    j, n_max = _integer("level", j), _integer("n_max", n_max)
    if not 1 <= j <= n_max:
        raise ValueError(f"level {j} outside 1..{n_max}")
    d = _integer("arity", d, 2)
    return _leader_count(s_j, j, d) / total_nodes(d, n_max)


def local_leader_probability(counts: LevelLeaderCounts, n_max: int | None = None) -> float:
    """Probability a uniformly random tree node is a leader at any level."""
    n_max = counts.n_max if n_max is None else _integer("n_max", n_max)
    if n_max < counts.n_max:
        raise ValueError(
            f"n_max={n_max} smaller than the {counts.n_max} levels of counts"
        )
    total = total_nodes(counts.arity, n_max)
    return sum(counts.counts) / total


def assign_leaders(importance: ProbabilityMassFunction, d: int = 2) -> LeaderAssignment:
    """Prefix-free leader placement minimizing expected depth.

    Leaders land on the codeword paths of the optimal D-ary prefix code for
    their importance distribution (the digits of :func:`huffman_code`, with
    no ``PrefixCode`` built), so expected depth is within one level of the
    base-D entropy lower bound and more important leaders never sit deeper
    than less important ones.
    """
    paths = _huffman_paths(importance, d)
    return LeaderAssignment(d, paths, importance)


def verify_secure(assignment: LeaderAssignment) -> SecurityReport:
    """The verdict ``assignment`` was built with (:attr:`LeaderAssignment.security`)."""
    return assignment.security


def path_reliability(q: float, n_j: int) -> float:
    """Probability all n_j links from the root to a depth-n_j leader work."""
    q, n_j = _probability("link failure probability", q), _integer("depth", n_j, 1)
    return (1.0 - q) ** n_j


def last_link_failure_probability(q: float, n_j: int) -> float:
    """Probability the first n_j - 1 links work and the final link fails."""
    q, n_j = _probability("link failure probability", q), _integer("depth", n_j, 1)
    return (1.0 - q) ** (n_j - 1) * q
