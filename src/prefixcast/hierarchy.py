"""Leader placement in complete D-ary trees and path-reliability formulas.

Nodes of a complete D-ary tree are addressed by digit paths from the root
(the root is the empty path, its children are (0,), (1,), ...). Placing
leaders at the codeword paths of an optimal prefix code makes every
root-to-leader path prefix-free, so a message descending toward one leader
never travels through another, and simultaneously minimizes the expected
leader depth weighted by importance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .source_coding import (
    CodeLengthSet,
    ProbabilityMassFunction,
    huffman_code,
    kraft_sum,
    prefix_violations,
)


def total_nodes(d: int, n_max: int) -> int:
    """Node count of the complete D-ary tree of depth n_max.

    Geometric series (D**(n_max+1) - 1) / (D - 1); at D=2 this is the
    familiar 2**(n_max+1) - 1.
    """
    if d < 2:
        raise ValueError(f"arity must be >= 2, got {d}")
    if n_max < 0:
        raise ValueError(f"depth must be >= 0, got {n_max}")
    return (d ** (n_max + 1) - 1) // (d - 1)


@dataclass(frozen=True)
class DaryTree:
    """Complete D-ary tree of a fixed maximum depth."""

    arity: int
    max_depth: int

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError(f"arity must be >= 2, got {self.arity}")
        if self.max_depth < 0:
            raise ValueError(f"max depth must be >= 0, got {self.max_depth}")

    def nodes_at_depth(self, j: int) -> int:
        if not 0 <= j <= self.max_depth:
            raise ValueError(f"depth {j} outside 0..{self.max_depth}")
        return self.arity**j

    def total_nodes(self) -> int:
        return total_nodes(self.arity, self.max_depth)

    def contains_path(self, path: tuple) -> bool:
        return len(path) <= self.max_depth and all(
            0 <= d < self.arity for d in path
        )


@dataclass(frozen=True)
class LevelLeaderCounts:
    """s_j = number of leaders elected at depth j, for j = 1..n_max."""

    counts: tuple
    arity: int

    def __post_init__(self):
        if self.arity < 2:
            raise ValueError(f"arity must be >= 2, got {self.arity}")
        counts = tuple(int(s) for s in self.counts)
        for j, s in enumerate(counts, start=1):
            if not 0 <= s <= self.arity**j:
                raise ValueError(
                    f"level {j} has {s} leaders but only {self.arity**j} nodes"
                )
        object.__setattr__(self, "counts", counts)

    @property
    def n_max(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class LeaderAssignment:
    """Leaders at digit-path addresses of a D-ary tree, with importances.

    Construction enforces digit ranges, the tree depth bound, and the
    no-root rule (a depth-0 leader would sit on every other leader's path).
    Prefix-freeness between leaders is the point of the placement and is
    audited by :func:`verify_secure` rather than hard-enforced here, so a
    hand-built faulty assignment can be inspected instead of rejected.
    """

    tree: DaryTree
    leaders: dict  # label -> digit path tuple
    importance: ProbabilityMassFunction

    def __post_init__(self):
        if set(self.leaders) != set(self.importance.labels()):
            raise ValueError("leader labels and importance labels differ")
        paths = {}
        for label, path in self.leaders.items():
            path = tuple(int(d) for d in path)
            if len(path) == 0:
                raise ValueError(f"leader {label!r} placed at the root")
            if not self.tree.contains_path(path):
                raise ValueError(
                    f"leader {label!r} path {path!r} leaves the tree "
                    f"(arity {self.tree.arity}, depth {self.tree.max_depth})"
                )
            paths[label] = path
        object.__setattr__(self, "leaders", paths)

    def depths(self) -> dict:
        return {label: len(path) for label, path in self.leaders.items()}

    def expected_depth(self) -> float:
        return math.fsum(
            p * len(self.leaders[label]) for label, p in self.importance.entries
        )

    def depth_kraft_sum(self) -> float:
        return kraft_sum(
            CodeLengthSet(
                tuple(len(p) for p in self.leaders.values()), self.tree.arity
            )
        )


@dataclass(frozen=True)
class SecurityReport:
    """Outcome of auditing an assignment for path containment."""

    secure: bool
    violations: tuple  # (ancestor label, descendant label) pairs


def node_selection_probability(s_j: int, j: int, d: int) -> float:
    """Probability a given depth-j node is one of the s_j elected leaders."""
    if d < 2:
        raise ValueError(f"arity must be >= 2, got {d}")
    if j < 0:
        raise ValueError(f"depth must be >= 0, got {j}")
    if not 0 <= s_j <= d**j:
        raise ValueError(f"s_j={s_j} outside 0..{d**j} at depth {j}")
    return s_j / d**j


def level_leader_probability(s_j: int, j: int, d: int, n_max: int) -> float:
    """Probability a uniformly random tree node is a depth-j leader.

    s_j elected nodes out of the whole tree's node count. The level j is
    needed to validate s_j against the D**j nodes available at that depth.
    """
    if not 1 <= j <= n_max:
        raise ValueError(f"level {j} outside 1..{n_max}")
    if not 0 <= s_j <= d**j:
        raise ValueError(f"s_j={s_j} outside 0..{d**j} at depth {j}")
    return s_j / total_nodes(d, n_max)


def local_leader_probability(counts: LevelLeaderCounts, n_max: int | None = None) -> float:
    """Probability a uniformly random tree node is a leader at any level."""
    if n_max is None:
        n_max = counts.n_max
    if n_max < counts.n_max:
        raise ValueError(
            f"n_max={n_max} smaller than the {counts.n_max} levels of counts"
        )
    total = total_nodes(counts.arity, n_max)
    return sum(counts.counts) / total


def assign_leaders(importance: ProbabilityMassFunction, d: int = 2) -> LeaderAssignment:
    """Prefix-free leader placement minimizing expected depth.

    Leaders land on the codeword paths of the optimal D-ary prefix code for
    their importance distribution, so expected depth is within one level of
    the base-D entropy lower bound and more important leaders never sit
    deeper than less important ones.
    """
    code = huffman_code(importance, d)
    paths = {label: word.digits for label, word in code.assignments.items()}
    depth = max(len(p) for p in paths.values())
    tree = DaryTree(d, depth)
    return LeaderAssignment(tree, paths, importance)


def verify_secure(assignment: LeaderAssignment) -> SecurityReport:
    """Audit that no leader lies on the root path of another.

    A violating pair (a, b) means a's path is a proper prefix of b's, i.e.
    traffic addressed to b passes through a. Equal paths violate in both
    directions. The assignment is secure exactly when no pairs are found.
    Pairs are found by the sorted scan of :func:`prefix_violations` and
    listed in label order, by ancestor and then by descendant.
    """
    labels = sorted(assignment.leaders)
    pairs = prefix_violations([assignment.leaders[label] for label in labels])
    violations = tuple((labels[i], labels[j]) for i, j in pairs)
    return SecurityReport(secure=not violations, violations=violations)


def path_reliability(q: float, n_j: int) -> float:
    """Probability all n_j links from the root to a depth-n_j leader work."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"link failure probability {q!r} outside [0, 1]")
    if n_j < 1:
        raise ValueError(f"depth must be >= 1, got {n_j}")
    return (1.0 - q) ** n_j


def last_link_failure_probability(q: float, n_j: int) -> float:
    """Probability the first n_j - 1 links work and the final link fails."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"link failure probability {q!r} outside [0, 1]")
    if n_j < 1:
        raise ValueError(f"depth must be >= 1, got {n_j}")
    return (1.0 - q) ** (n_j - 1) * q
