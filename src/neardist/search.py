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
points. The walk keeps an n-by-n boolean pair-hit matrix, whose row i marks
the points forming a qualifying pair with point i, so the count at the old
position is read from a row instead of recomputed. The matrix costs n**2
bytes: 64 B at n = 8, 16 MB at n = 4000.

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
    final_temperature the temperature the last restart ended at; neither is
    part of summary_dict.
    """

    best_ps: PointSet
    best_count: int
    trajectory: tuple[tuple[int, int], ...]
    accepted_moves: int
    rejected_moves: int
    moves: dict[str, MoveCounts]
    final_temperature: float

    def summary_dict(self) -> dict:
        return {
            "best_count": self.best_count,
            "accepted_moves": self.accepted_moves,
            "rejected_moves": self.rejected_moves,
            "n": self.best_ps.n,
        }


def _placement_hits(
    coords: np.ndarray, idx: int, x: float, y: float, lo2: np.ndarray, hi2: np.ndarray
) -> np.ndarray | None:
    """Mask of the points forming a qualifying pair with (x, y), idx never
    marked; None when (x, y) is closer than 1 to a point other than idx or
    outside the coordinate limit |x|, |y| <= 2**510. The mask needs no labels,
    so it is a union over the intervals: on a few points _label_hits'
    generator costs more."""
    if abs(x) > _MAX_COORDINATE or abs(y) > _MAX_COORDINATE:
        return None
    dx = coords[:, 0] - x
    dy = coords[:, 1] - y
    d2 = dx * dx + dy * dy
    d2[idx] = np.inf
    if d2.min() < 1.0:
        return None
    hit = (d2 >= lo2[0]) & (d2 <= hi2[0])
    for l in range(1, len(lo2)):
        hit |= (d2 >= lo2[l]) & (d2 <= hi2[l])
    return hit


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
    hit count minus the moved point's row of the pair-hit matrix (n**2 bytes,
    filled from the start state of each restart); an accepted move writes the
    new mask into that row and column. The running count is checked against a
    brute recount every _RECOUNT_PERIOD iterations and at the end.
    """
    cfg = config.resolved()
    if initial is not None:
        if initial.n != cfg.n:
            raise ValueError(f"initial point set has n={initial.n}, config says {cfg.n}")
        _, separated = min_pairwise_distance(initial)
        if not separated:
            raise ValueError("initial point set is not separated")

    lo2, hi2 = cfg.iv.sq_bounds
    t_max = cfg.iv.t[-1]
    box_side = 2.0 * math.sqrt(cfg.n)

    best_coords: np.ndarray | None = None
    best_count = -1
    trajectory: list[tuple[int, int]] = []
    # [accepted, blocked, declined] of the jitter (row 0) and teleport (row 1) moves
    tally = [[0, 0, 0], [0, 0, 0]]
    stride = max(1, cfg.iterations // 200)

    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        if initial is not None:
            coords = np.array(initial.coords)
        else:
            coords = np.array(random_separated(cfg.n, box_side, cfg.seed + restart).coords)
        current = count_pairs(PointSet(coords), cfg.iv, method="brute").total
        hits = np.empty((cfg.n, cfg.n), dtype=bool)
        for i in range(cfg.n):
            hits[i] = _placement_hits(coords, i, coords[i, 0], coords[i, 1], lo2, hi2)
        base_iter = restart * cfg.iterations
        trajectory.append((base_iter, current))
        if current > best_count:
            best_count = current
            best_coords = coords.copy()

        temperature = cfg.initial_temperature
        for it in range(cfg.iterations):
            idx = int(rng.integers(cfg.n))
            teleport = rng.random() < cfg.teleport_probability
            if teleport:
                lo = coords.min(axis=0) - 2.0 * t_max
                hi = coords.max(axis=0) + 2.0 * t_max
                nx = rng.uniform(lo[0], hi[0])
                ny = rng.uniform(lo[1], hi[1])
            else:
                step = rng.normal(0.0, cfg.jitter_sigma, 2)
                nx = coords[idx, 0] + step[0]
                ny = coords[idx, 1] + step[1]

            hit = _placement_hits(coords, idx, nx, ny, lo2, hi2)
            if hit is None:
                tally[teleport][1] += 1
            else:
                gain = int(np.count_nonzero(hit)) - int(np.count_nonzero(hits[idx]))
                if gain >= 0 or rng.random() < math.exp(gain / temperature):
                    coords[idx, 0] = nx
                    coords[idx, 1] = ny
                    hits[idx] = hit
                    hits[:, idx] = hit
                    current += gain
                    tally[teleport][0] += 1
                    if current > best_count:
                        best_count = current
                        best_coords = coords.copy()
                else:
                    tally[teleport][2] += 1

            # floor prevents underflow to exactly 0.0 on very long runs, which
            # would turn gain / temperature into a division error
            temperature = max(temperature * cfg.cooling_factor, 1e-300)
            if (it + 1) % stride == 0:
                trajectory.append((base_iter + it + 1, current))
            if (it + 1) % _RECOUNT_PERIOD == 0:
                full = count_pairs(PointSet(coords), cfg.iv, method="brute").total
                if full != current:
                    raise RuntimeError(
                        f"incremental count drifted: running {current}, recount {full}"
                    )

    assert best_coords is not None
    best_ps = PointSet(best_coords)
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

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "new_x": self.new_x,
            "new_y": self.new_y,
            "count_gain": self.count_gain,
        }


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

    def to_dict(self) -> dict:
        return {
            "probe_radius": self.probe_radius,
            "probes_per_point": self.probes_per_point,
            "seed": self.seed,
            "locally_optimal": self.locally_optimal,
            "moves": [m.to_dict() for m in self.moves],
        }


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
    coords = ps.coords
    rng = np.random.default_rng(seed)
    moves: list[ImprovingMove] = []
    for i in range(ps.n):
        hit = _placement_hits(coords, i, coords[i, 0], coords[i, 1], lo2, hi2)
        old = int(np.count_nonzero(hit))
        for _ in range(probes_per_point):
            rad = probe_radius * math.sqrt(rng.random())
            ang = 2.0 * math.pi * rng.random()
            nx = coords[i, 0] + rad * math.cos(ang)
            ny = coords[i, 1] + rad * math.sin(ang)
            hit = _placement_hits(coords, i, nx, ny, lo2, hi2)
            if hit is None:
                continue
            new = int(np.count_nonzero(hit))
            if new > old:
                moves.append(ImprovingMove(point=i, new_x=nx, new_y=ny, count_gain=new - old))
    return LocalOptReport(
        probe_radius=probe_radius,
        probes_per_point=probes_per_point,
        seed=seed,
        moves=tuple(moves),
    )
