"""Simulated annealing over point positions, maximizing the qualifying-pair count.

The state is a separated point set; the objective is the number of pairs whose
distance falls in a fixed interval family. Moves displace one point at a time:
mostly small Gaussian jitters, occasionally a teleport to a uniform position
inside the current bounding box inflated by twice the largest interval value,
so the walk can discover structure at both the interval-width scale and the
inter-cluster scale. Moves breaking the separation constraint or leaving the
coordinate limit |x|, |y| <= 2**510 are rejected outright, which keeps the
objective exactly the pair count.

Each proposal costs one distance pass, from the proposed position to the other
points, in plain Python floats. The walk keeps one int bitmask row per point,
whose bit j marks a qualifying pair with point j, so the count at the old
position is read from a row instead of recomputed, and an accepted move flips
one bit in the rows of the points that joined or left. A step costs about
7-9 us at n = 8, 19 us at n = 40 and 66-70 us at n = 200 (k = 5, in process,
shared 2-vCPU host). A numpy pass over the same points costs 18-36 us at
every n, mostly per-call overhead, so the scalar pass is faster below a
crossover between n = 40 and n = 100 and slower, linearly in n, above it.
There is one pass and no size switch: searches run at small n (n = 8 in the
benchmark, at most 70 in the tests), and none sits above the crossover.

Everything is deterministic for a fixed seed. Restarts run with derived seeds
(seed + restart index) and merge by best count, ties to the lower restart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constructions import random_separated
from .counting import count_pairs
from .geometry import _MAX_COORDINATE, IntervalFamily, PointSet, min_pairwise_distance

__all__ = [
    "SearchConfig",
    "SearchResult",
    "MoveCounts",
    "anneal",
    "LocalOptReport",
    "ImprovingMove",
    "local_opt_check",
]

# Running incremental counts are cross-checked against a full recount at this
# cadence to guard against drift bugs.
_RECOUNT_PERIOD = 1 << 14


def _check_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class SearchConfig:
    """Annealing parameters; None fields resolve to defaults scaled to the run.

    Defaults: initial_temperature = n / 4 (matched to unit count increments),
    cooling_factor = 1 - 10 / iterations, jitter_sigma = 0.5,
    teleport_probability = 0.1, restarts = 1.
    """

    n: int
    iv: IntervalFamily
    iterations: int
    seed: int
    initial_temperature: float | None = None
    cooling_factor: float | None = None
    jitter_sigma: float = 0.5
    teleport_probability: float = 0.1
    restarts: int = 1

    def __post_init__(self) -> None:
        # Config files pass raw JSON values: check types before comparing them.
        for name, least in (("n", 1), ("iterations", 0), ("seed", 0), ("restarts", 1)):
            _check_integer(name, getattr(self, name), least)
        for name in ("initial_temperature", "cooling_factor", "jitter_sigma",
                     "teleport_probability"):
            value = getattr(self, name)
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if value is not None and not (number and math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.jitter_sigma <= 0:
            raise ValueError(f"jitter_sigma must be positive, got {self.jitter_sigma}")
        if not (0.0 <= self.teleport_probability <= 1.0):
            raise ValueError(
                f"teleport_probability must lie in [0, 1], got {self.teleport_probability}"
            )
        if self.initial_temperature is not None and self.initial_temperature <= 0:
            raise ValueError(
                f"initial_temperature must be positive, got {self.initial_temperature}"
            )
        if self.cooling_factor is not None and not (0.0 < self.cooling_factor < 1.0):
            raise ValueError(
                f"cooling_factor must lie in (0, 1), got {self.cooling_factor}"
            )

    def resolved(self) -> "SearchConfig":
        """Fill in the run-scaled defaults for any None fields."""
        temp = self.initial_temperature if self.initial_temperature is not None else self.n / 4.0
        if self.cooling_factor is not None:
            cool = self.cooling_factor
        elif self.iterations > 10:
            cool = 1.0 - 10.0 / self.iterations
            if cool == 1.0:  # from about 1.8e17 iterations on
                raise ValueError(
                    f"iterations={self.iterations} rounds the default cooling factor "
                    "1 - 10 / iterations to 1.0; set cooling_factor in (0, 1)"
                )
        else:
            cool = 0.5
        return replace(self, initial_temperature=temp, cooling_factor=cool)


@dataclass(frozen=True)
class MoveCounts:
    """How the proposals of one move type ended, summed over all restarts.

    blocked counts the separation and coordinate-limit rejections, declined
    the Metropolis rejections.
    """

    proposed: int
    accepted: int
    blocked: int
    declined: int


@dataclass(frozen=True)
class SearchResult:
    """Best state found, its count, and run statistics.

    best_count always equals an independent full recount of best_ps; the
    trajectory samples the running count as (global iteration, count).
    moves holds a MoveCounts per move type ("jitter", "teleport") and
    final_temperature the temperature the last restart ended at; search.json
    holds neither.
    """

    best_ps: PointSet
    best_count: int
    trajectory: tuple[tuple[int, int], ...]
    accepted_moves: int
    rejected_moves: int
    moves: dict[str, MoveCounts]
    final_temperature: float


def _placement_hits(
    xs: list[float], ys: list[float], idx: int, x: float, y: float,
    bounds: list[tuple[float, float]],
) -> int | None:
    """Bitmask of the points forming a qualifying pair with (x, y), bit idx
    never set; None when (x, y) is closer than 1 to a point other than idx or
    outside the coordinate limit |x|, |y| <= 2**510. bounds holds the squared
    (lo, hi) of each interval; the mask needs no labels, so it is a union over
    them. Python floats round each operation to binary64 as numpy's ufuncs
    do, so d2 is the package's dx*dx + dy*dy bit for bit."""
    if abs(x) > _MAX_COORDINATE or abs(y) > _MAX_COORDINATE:
        return None
    mask = 0
    for j, (px, py) in enumerate(zip(xs, ys)):
        if j == idx:
            continue
        dx = px - x
        dy = py - y
        d2 = dx * dx + dy * dy
        if d2 < 1.0:
            return None
        for lo, hi in bounds:
            if lo <= d2 <= hi:
                mask |= 1 << j
                break
    return mask


def anneal(config: SearchConfig, initial: PointSet | None = None) -> SearchResult:
    """Run the annealing loop; deterministic for a fixed config.

    Starts from the given separated point set, or from
    random_separated(n, 2*sqrt(n), seed + restart) when none is given. Each
    iteration proposes one single-point move (teleport with the configured
    probability, Gaussian jitter otherwise), rejects it when separation would
    break or the point would leave the coordinate limit, and otherwise accepts
    on count gain or with probability exp(gain / temperature). The
    temperature decays by the cooling factor every iteration. The best state
    is tracked across all restarts.

    A proposal runs one distance pass, at the new position. The gain is its
    mask's bit count minus that of the moved point's bitmask row (rows filled
    from the start state of each restart); an accepted move stores the new
    mask as that row and flips the moved point's bit in the rows of the
    points whose pair with it changed. The running count is checked against
    a brute recount every _RECOUNT_PERIOD iterations and at the end.

    The draw sequence of a step is part of every output: integers(n),
    random(), then normal(0, sigma, 2) or two uniform() calls, then random()
    only for a Metropolis test. tests/golden_search.json pins it.
    """
    cfg = config.resolved()
    if initial is not None:
        if initial.n != cfg.n:
            raise ValueError(f"initial point set has n={initial.n}, config says {cfg.n}")
        _, separated = min_pairwise_distance(initial)
        if not separated:
            raise ValueError("initial point set is not separated")

    lo2, hi2 = cfg.iv.sq_bounds
    bounds = list(zip(lo2.tolist(), hi2.tolist()))
    t_max = cfg.iv.t[-1]
    box_side = 2.0 * math.sqrt(cfg.n)

    best_xy: tuple[list[float], list[float]] | None = None
    best_count = -1
    trajectory: list[tuple[int, int]] = []
    # [accepted, blocked, declined] of the jitter (row 0) and teleport (row 1) moves
    tally = [[0, 0, 0], [0, 0, 0]]
    stride = max(1, cfg.iterations // 200)

    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        start = initial if initial is not None else random_separated(
            cfg.n, box_side, cfg.seed + restart)
        xs, ys = start.coords.T.tolist()
        current = count_pairs(start, cfg.iv, method="brute").total
        hits = [_placement_hits(xs, ys, i, xs[i], ys[i], bounds) for i in range(cfg.n)]
        base_iter = restart * cfg.iterations
        trajectory.append((base_iter, current))
        if current > best_count:
            best_count = current
            best_xy = (xs[:], ys[:])

        temperature = cfg.initial_temperature
        for it in range(cfg.iterations):
            idx = int(rng.integers(cfg.n))
            teleport = rng.random() < cfg.teleport_probability
            if teleport:
                nx = rng.uniform(min(xs) - 2.0 * t_max, max(xs) + 2.0 * t_max)
                ny = rng.uniform(min(ys) - 2.0 * t_max, max(ys) + 2.0 * t_max)
            else:
                sx, sy = rng.normal(0.0, cfg.jitter_sigma, 2).tolist()
                nx = xs[idx] + sx
                ny = ys[idx] + sy

            hit = _placement_hits(xs, ys, idx, nx, ny, bounds)
            if hit is None:
                tally[teleport][1] += 1
            else:
                old = hits[idx]
                gain = hit.bit_count() - old.bit_count()
                if gain >= 0 or rng.random() < math.exp(gain / temperature):
                    xs[idx] = nx
                    ys[idx] = ny
                    hits[idx] = hit
                    # flip bit idx in the rows of the points that joined or left
                    changed = old ^ hit
                    while changed:
                        low = changed & -changed
                        hits[low.bit_length() - 1] ^= 1 << idx
                        changed ^= low
                    current += gain
                    tally[teleport][0] += 1
                    if current > best_count:
                        best_count = current
                        best_xy = (xs[:], ys[:])
                else:
                    tally[teleport][2] += 1

            # floor prevents underflow to exactly 0.0 on very long runs, which
            # would turn gain / temperature into a division error
            temperature = max(temperature * cfg.cooling_factor, 1e-300)
            if (it + 1) % stride == 0:
                trajectory.append((base_iter + it + 1, current))
            if (it + 1) % _RECOUNT_PERIOD == 0:
                now = PointSet(np.column_stack((xs, ys)))
                full = count_pairs(now, cfg.iv, method="brute").total
                if full != current:
                    raise RuntimeError(
                        f"incremental count drifted: running {current}, recount {full}"
                    )

    assert best_xy is not None
    best_ps = PointSet(np.column_stack(best_xy))
    recount = count_pairs(best_ps, cfg.iv, method="brute").total
    if recount != best_count:
        raise RuntimeError(f"best count drifted: tracked {best_count}, recount {recount}")
    moves = {
        kind: MoveCounts(sum(row), *row)
        for kind, row in zip(("jitter", "teleport"), tally)
    }
    return SearchResult(
        best_ps=best_ps,
        best_count=best_count,
        trajectory=tuple(trajectory),
        accepted_moves=sum(m.accepted for m in moves.values()),
        rejected_moves=sum(m.blocked + m.declined for m in moves.values()),
        moves=moves,
        final_temperature=temperature,
    )


@dataclass(frozen=True)
class ImprovingMove:
    """A single-point displacement that keeps separation and raises the count."""

    point: int
    new_x: float
    new_y: float
    count_gain: int


@dataclass(frozen=True)
class LocalOptReport:
    """Improving single-point moves found by random probing.

    An empty move list means the configuration is locally maximal at this
    probe resolution; it is not a proof of local optimality.
    """

    probe_radius: float
    probes_per_point: int
    seed: int
    moves: tuple[ImprovingMove, ...]

    @property
    def locally_optimal(self) -> bool:
        return not self.moves


def local_opt_check(
    ps: PointSet,
    iv: IntervalFamily,
    probe_radius: float,
    probes_per_point: int,
    seed: int,
) -> LocalOptReport:
    """Probe every point with random in-disk displacements; report improvements.

    For each point, probes_per_point positions are sampled uniformly within
    probe_radius; any displacement that preserves separation and strictly
    increases the qualifying-pair count is reported. Requires a separated
    input.
    """
    number = isinstance(probe_radius, (int, float)) and not isinstance(probe_radius, bool)
    if not (number and math.isfinite(probe_radius) and probe_radius > 0):
        raise ValueError(f"probe_radius must be finite and positive, got {probe_radius!r}")
    _check_integer("probes_per_point", probes_per_point, 1)
    _check_integer("seed", seed, 0)
    _, separated = min_pairwise_distance(ps)
    if not separated:
        raise ValueError("point set is not separated")

    lo2, hi2 = iv.sq_bounds
    bounds = list(zip(lo2.tolist(), hi2.tolist()))
    xs, ys = ps.coords.T.tolist()
    rng = np.random.default_rng(seed)
    moves: list[ImprovingMove] = []
    for i in range(ps.n):
        old = _placement_hits(xs, ys, i, xs[i], ys[i], bounds).bit_count()
        for _ in range(probes_per_point):
            rad = probe_radius * math.sqrt(rng.random())
            ang = 2.0 * math.pi * rng.random()
            nx = xs[i] + rad * math.cos(ang)
            ny = ys[i] + rad * math.sin(ang)
            hit = _placement_hits(xs, ys, i, nx, ny, bounds)
            if hit is None:
                continue
            new = hit.bit_count()
            if new > old:
                moves.append(ImprovingMove(point=i, new_x=nx, new_y=ny, count_gain=new - old))
    return LocalOptReport(
        probe_radius=probe_radius,
        probes_per_point=probes_per_point,
        seed=seed,
        moves=tuple(moves),
    )
