"""Level-controlled gossip: BFS leveling, sectoring, and a seeded simulator.

Nodes learn their level (hop count from the base station), which a
:class:`LeveledNetwork` derives from its graph and base station by one BFS,
and optionally a sector id (equiangular wedge around the base station). An
event message is rebroadcast toward the base station with a per-level
probability, higher levels gossiping more reluctantly than lower ones, while
every link drop is an independent Bernoulli failure.

Randomness is counter-based: every decision in every trial reads its own
value from a splitmix64 chain keyed by (seed, trial, kind, index), where
kind 0 is a node's forwarding gate (index = node position in vertex order)
and kind 1 is a directed link attempt (index = sender_pos * n + receiver_pos).
Two simulations with the same seed therefore share randomness decision by
decision, which makes per-seed comparisons across parameter values exact
couplings rather than noisy re-rolls, and results reproduce bit-for-bit on
any platform. The draw of a decision is z / 2.0**64 for the four-stage
chain z = s(s(s(s(seed) + trial) + kind) + index), each argument taken
mod 2**64, where s is :func:`_splitmix64`; it succeeds when draw < p.

Because a draw is a pure function of its key, a trial can be evaluated in
any order, and a draw that cannot change the trial need not be made. The
simulator runs a trial level by level. A node below the source fires
exactly when its gate passes and some link to it from a fired node one
level up survives, so at each level it draws each candidate's gate once
and its links only while the gate is open, until one survives. Every draw
it makes reads the same keyed value, and a draw it skips cannot change that
conjunction, so no outcome depends on the order. The first three stages of
the chain depend only on (seed), (seed, trial) and (seed, trial, kind), so
they are computed once per run and once per trial, with the last stage's
splitmix64 increment folded into the trial's gate and link keys. Each
decision is then one inlined splitmix64 stage, compared as an integer
against a threshold computed once per run (see :func:`_threshold`), and
mostly settled by the top bits of the stage's last product (see
:func:`_band`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graphs import Graph, _hop_levels
from .source_coding import _integer, _probability

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_GATE = 0
_LINK = 1


class NonMonotoneLevels(ValueError):
    """Level probabilities are not strictly decreasing and that is not allowed."""


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _threshold(p: float) -> int:
    """The least z with ``z / 2.0**64 >= p``, for p in [0, 1].

    ``z / 2.0**64`` never decreases as z grows, so for every 64-bit z the
    draw ``z / 2.0**64 < p`` holds exactly when ``z < _threshold(p)``. The
    ceiling of ``p * 2.0**64`` (an exact scaling) qualifies, and a 64-bit
    integer rounds to a double by at most 2**10, so the least z lies within
    2**11 below it and bisection finds it.
    """
    hi = math.ceil(p * 2.0**64)
    lo = max(hi - 2**11, 0)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2.0**64 >= p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _band(t: int) -> tuple:
    """``(lo, hi, t)`` for a threshold t, deciding a draw by its top bits.

    The last splitmix64 stage ``z ^ (z >> 31)`` leaves bits 63..33 of z as
    they are, so with ``lo = (t >> 33) << 33`` the draw is below t when
    ``z < lo`` and is not when ``z >= hi = lo + 2**33``. Only a z in that
    band of width 2**33 needs the xor-shift to be compared with t.
    """
    lo = t >> 33 << 33
    return lo, lo + (1 << 33), t


@dataclass(frozen=True)
class LeveledNetwork:
    """A graph whose vertices know their BFS distance from the base station.

    ``level`` is not an argument: it is derived once, on construction, by
    one BFS from the base station, so holding a LeveledNetwork certifies
    that adjacent vertices differ by at most one level. A base station that
    is not a vertex, or a graph it does not reach whole, is refused.
    """

    graph: Graph
    base_station: object
    level: dict = field(init=False)

    def __post_init__(self):
        bs = self.base_station
        if bs not in self.graph._order_key:
            raise ValueError(f"base station {bs!r} is not a vertex")
        level = _hop_levels(self.graph, bs)
        if len(level) < len(self.graph.vertices):
            raise ValueError("graph is disconnected; leveling undefined")
        object.__setattr__(self, "level", level)

    def max_level(self) -> int:
        return max(self.level.values())


@dataclass(frozen=True)
class GossipConfig:
    """Per-level forwarding probabilities plus channel and run parameters.

    ``level_probabilities[j-1]`` gates forwarding at level j. Levels must be
    strictly decreasing in probability (nearer the base station gossips
    harder) unless ``allow_nonmonotone`` is set, which is recorded so output
    can flag the experiment. ``trials`` (at least 1) and ``seed`` are
    integers by :func:`_integer`, stored as int; neither is truncated.
    """

    level_probabilities: tuple
    q: float
    trials: int
    seed: int
    allow_nonmonotone: bool = False

    def __post_init__(self):
        probs = tuple(_probability("level probability", float(p)) for p in self.level_probabilities)
        if not probs:
            raise ValueError("at least one level probability is required")
        if not self.allow_nonmonotone:
            for a, b in zip(probs, probs[1:]):
                if not a > b:
                    raise NonMonotoneLevels(
                        "level probabilities must be strictly decreasing; "
                        "pass allow_nonmonotone to override"
                    )
        object.__setattr__(self, "q", float(_probability("link failure probability", self.q)))
        object.__setattr__(self, "trials", _integer("trials", self.trials, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        object.__setattr__(self, "level_probabilities", probs)


@dataclass(frozen=True)
class SimResult:
    """Aggregates of one simulation run.

    ``mean_hops`` averages the hop count of the first delivery over the
    delivered trials only; it is 0.0 when nothing was delivered. A node
    accepts only from one level up and relays only one level down, so every
    delivery takes exactly ``level(source)`` hops, and ``mean_hops`` equals
    ``level(source)`` whenever anything is delivered.
    """

    trials: int
    delivered: int
    delivery_ratio: float
    mean_transmissions: float
    mean_hops: float
    seed: int


def assign_levels(g: Graph, base_station) -> LeveledNetwork:
    """Label every vertex with its hop distance from the base station.

    The same as ``LeveledNetwork(g, base_station)``, which derives the levels
    and refuses a base station that is not a vertex or a disconnected graph.
    """
    return LeveledNetwork(g, base_station)


def assign_sectors(positions: dict, base_station, k: int) -> dict:
    """Equiangular sector ids around the base station.

    sector(v) = floor(theta / (360/K)) with theta the planar angle of v seen
    from the base station, in [0, 360). Angles within 1e-9 degrees of a
    boundary snap onto it, so a vertex at exactly 90 degrees with K=4 lands
    in sector 1. The base station itself gets sector 0.
    """
    k = _integer("sector count", k, 1)
    if base_station not in positions:
        raise ValueError(f"no position for base station {base_station!r}")
    bx, by = positions[base_station]
    width = 360.0 / k
    sectors = {}
    for v, (x, y) in positions.items():
        if v == base_station:
            sectors[v] = 0
            continue
        theta = math.degrees(math.atan2(y - by, x - bx)) % 360.0
        t = theta / width
        nearest = round(t)
        sector = nearest if abs(t - nearest) < 1e-9 else math.floor(t)
        sectors[v] = sector % k
    return sectors


def _prepare(net: LeveledNetwork):
    """Per-vertex level and downhill links, indexed by position.

    ``downhill[i]`` lists ``(link index, receiver position)`` for each
    strictly-lower-level neighbor of vertex i, where the link index is the
    draw index ``i * n + receiver position``. A trial's outcome does not
    depend on the order in which a level's links are tried.
    """
    verts = net.graph.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    level = [net.level[v] for v in verts]
    downhill = [[] for _ in verts]
    for u, v in net.graph.edges:
        i, j = pos[u], pos[v]
        if level[j] < level[i]:
            downhill[i].append((i * n + j, j))
        elif level[i] < level[j]:
            downhill[j].append((j * n + i, i))
    return pos, level, downhill


def _run_trial(level, downhill, gates, link_band, source, broadcast, root, trial):
    """One trial from the vertex at position ``source``, evaluated by level.

    ``root`` is ``_splitmix64(seed)``. The source's gate is drawn whole by
    :func:`_splitmix64`, and only once it passes is the link key derived.
    Both keys then carry the last stage's increment, so a decision on index
    i mixes ``(key + i) & _MASK64`` by two splitmix64 rounds and is settled
    from that z by the decision's :func:`_band`, as the last stage of the
    draw chain in the module docstring would be. ``gates[j]`` is the band of
    the gate at level j and ``link_band`` the band of a surviving link. The
    base station's gate has the threshold 2**64, so every draw passes it.

    The source fires with its level's probability and then costs one
    transmission per incident link, ``broadcast`` of them to neighbors not
    below it. Every other node that fires costs one transmission per
    downhill link. At each level below the source, a candidate is a downhill
    neighbor of a fired node, and it fires when its gate passes and some
    link to it from a fired node survives. Its gate is drawn once, and its
    links only while the gate is open, until one survives. The per-level
    dict ``state`` marks a candidate True while its gate has passed and no
    link has, and False once it is decided, so no decision is drawn twice.
    A skipped draw cannot change the conjunction, so the fired sets, and
    with them every transmission count and outcome, are those of drawing
    every decision. A trial delivers when the base station fires, after
    ``level(source)`` hops.
    """
    top = level[source]
    if top == 0:
        return True, 0, 0
    chain = _splitmix64((root + trial) & _MASK64)
    gate_key = _splitmix64((chain + _GATE) & _MASK64)
    if _splitmix64((gate_key + source) & _MASK64) >= gates[top][2]:
        return False, 0, None
    gate_key += _GOLDEN
    link_key = _splitmix64((chain + _LINK) & _MASK64) + _GOLDEN
    link_lo, link_hi, link_t = link_band

    transmissions = broadcast
    fired = (source,)
    for lv in range(top - 1, -1, -1):
        gate_lo, gate_hi, gate_t = gates[lv]
        state = {}
        nxt = []
        for u in fired:
            links = downhill[u]
            transmissions += len(links)
            for link, v in links:
                gate_open = state.get(v)
                if gate_open is None:
                    z = (gate_key + v) & _MASK64
                    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                    gate_open = state[v] = z < gate_lo or z < gate_hi and z ^ (z >> 31) < gate_t
                if gate_open:
                    z = (link_key + link) & _MASK64
                    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                    if z < link_lo or z < link_hi and z ^ (z >> 31) < link_t:
                        state[v] = False
                        nxt.append(v)
        if not nxt:
            return False, transmissions, None
        fired = nxt
    return True, transmissions, top


def trial_outcomes(net: LeveledNetwork, cfg: GossipConfig, event_source):
    """Return an iterator of (delivered, transmissions, hops), one per trial.

    The arguments are checked when this is called, before any trial runs.
    ``hops`` is None on undelivered trials and ``level(event_source)`` on
    delivered ones. Trials depend only on their own keyed draws, so
    consuming this lazily, partially, or in parallel batches cannot change
    any outcome.
    """
    if event_source not in net.graph._order_key:
        raise ValueError(f"event source {event_source!r} is not a vertex")
    if net.max_level() > len(cfg.level_probabilities):
        raise ValueError(
            f"network has levels up to {net.max_level()} but only "
            f"{len(cfg.level_probabilities)} level probabilities were given"
        )
    pos, level, downhill = _prepare(net)
    # the base station's gate: no draw reaches 2**64, so it always passes
    gates = [_band(1 << 64)] + [_band(_threshold(p)) for p in cfg.level_probabilities]
    link_band = _band(_threshold(1.0 - cfg.q))
    source = pos[event_source]
    # the detecting node broadcasts on every link; relays aim downhill
    broadcast = sum(event_source in e for e in net.graph.edges) - len(downhill[source])
    root = _splitmix64(cfg.seed & _MASK64)
    return (
        _run_trial(level, downhill, gates, link_band, source, broadcast, root, t)
        for t in range(cfg.trials)
    )


def summarize_trials(cfg: GossipConfig, outcomes) -> SimResult:
    """Fold the outcomes of one run, exactly ``cfg.trials`` of them, into its SimResult."""
    folded = delivered = total_tx = total_hops = 0
    for ok, tx, hops in outcomes:
        folded += 1
        total_tx += tx
        if ok:
            delivered += 1
            total_hops += hops
    if folded != cfg.trials:
        raise ValueError(f"folded {folded} outcomes, but the config has {cfg.trials} trials")
    return SimResult(
        trials=cfg.trials,
        delivered=delivered,
        delivery_ratio=delivered / cfg.trials,
        mean_transmissions=total_tx / cfg.trials,
        mean_hops=total_hops / delivered if delivered else 0.0,
        seed=cfg.seed,
    )


def simulate_gossip(net: LeveledNetwork, cfg: GossipConfig, event_source) -> SimResult:
    """Monte Carlo of level-controlled gossip from one event source.

    Per trial: the source fires with its level's probability and, if it
    fires, attempts every incident link; each attempt independently survives
    with probability 1-q. A node accepts only messages arriving from a
    strictly higher level and only once per trial; on first acceptance it
    fires its own gate and, if successful, attempts the links to its
    strictly-lower-level neighbors. The base station is a pure sink. A trial
    delivers when the base station accepts.
    """
    return summarize_trials(cfg, trial_outcomes(net, cfg, event_source))


def _override(base: GossipConfig, point: dict) -> GossipConfig:
    probs = list(base.level_probabilities)
    q = base.q
    for key, value in point.items():
        if key == "q":
            q = float(value)
        elif key.startswith("P") and key[1:].isdigit():
            j = int(key[1:])
            if not 1 <= j <= len(probs):
                raise ValueError(f"{key} is outside levels 1..{len(probs)}")
            probs[j - 1] = float(value)
        else:
            raise ValueError(f"unknown sweep parameter {key!r}")
    return GossipConfig(
        tuple(probs), q, base.trials, base.seed, base.allow_nonmonotone
    )


def sweep_levels(
    net: LeveledNetwork, base: GossipConfig, event_source, grid
) -> list:
    """Run one simulation per grid point under common random numbers.

    Each grid point is a mapping like {"P2": 0.5} or {"q": 0.1} applied on
    top of the base config. The seed is shared across points and every
    random decision is keyed independently of the parameters, so comparing
    results across the grid compares the same underlying random world.
    Returns [(point, SimResult), ...] in grid order.
    """
    results = []
    for point in grid:
        cfg = _override(base, dict(point))
        results.append((dict(point), simulate_gossip(net, cfg, event_source)))
    return results
