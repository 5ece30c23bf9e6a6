"""Planar point sets, distance interval families, and pair-count verification.

Distances are Euclidean. A point set is *separated* when its minimum pairwise
distance is at least 1. An interval family is a sorted list of distance values
t_1 < ... < t_k, all at least 1, together with a common width alpha; a pair of
points "qualifies" when its distance falls in some closed interval
[t_l, t_l + alpha].

Floating-point convention used throughout the package: interval membership is
decided by comparing the squared distance dx*dx + dy*dy against the squared
bounds t_l*t_l and (t_l + alpha)**2, with exact binary comparison and no
epsilon slack. Pairs at exactly representable endpoints therefore count.

Coordinates are limited to |x|, |y| <= 2**510 and interval ends to
t_k + alpha <= 2**511, so dx*dx + dy*dy <= 2**1023 and (t_k + alpha)**2 <= 2**1022.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Point",
    "PointSet",
    "IntervalFamily",
    "HypothesisReport",
    "Violation",
    "VerifierReport",
    "min_pairwise_distance",
    "diameter",
    "check_hypothesis",
    "verify_bound",
]

_MAX_COORDINATE = 2.0**510
_MAX_INTERVAL_END = 2.0**511


@dataclass(frozen=True)
class Point:
    """A point in the plane. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


class PointSet:
    """An ordered, immutable list of planar points, indexable by 0-based id.

    Backed by a read-only float64 array of shape (n, 2). The empty set is
    rejected; duplicate points are allowed (they simply fail separation).
    """

    __slots__ = ("_coords",)

    def __init__(self, coords: np.ndarray | Sequence[Sequence[float]]):
        arr = np.array(coords, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) coordinate array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("a point set must contain at least one point")
        if not np.all(np.abs(arr) <= _MAX_COORDINATE):
            raise ValueError("point coordinates must be finite with magnitude at most 2**510")
        arr.setflags(write=False)
        self._coords = arr

    @classmethod
    def from_points(cls, points: Iterable[Point | tuple[float, float]]) -> "PointSet":
        return cls([(p.x, p.y) if isinstance(p, Point) else tuple(p) for p in points])

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, 2) coordinate array."""
        return self._coords

    @property
    def n(self) -> int:
        return self._coords.shape[0]

    def point(self, i: int) -> Point:
        x, y = self._coords[i]
        return Point(float(x), float(y))

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        for x, y in self._coords:
            yield Point(float(x), float(y))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self._coords.shape == other._coords.shape and bool(
            np.all(self._coords == other._coords)
        )

    def __repr__(self) -> str:
        return f"PointSet(n={self.n})"

    def to_dict(self) -> dict:
        return {"dim": 2, "points": [[float(x), float(y)] for x, y in self._coords]}


@dataclass(frozen=True)
class IntervalFamily:
    """Distance values t_1 < ... < t_k (each >= 1) with common interval width alpha > 0.

    Interval l (1-based) is the closed interval [t_l, t_l + alpha].
    """

    t: tuple[float, ...]
    alpha: float

    def __init__(self, t: Sequence[float], alpha: float):
        values = tuple(float(v) for v in t)
        if len(values) < 1:
            raise ValueError("interval family needs at least one value")
        if not all(math.isfinite(v) for v in values) or not math.isfinite(alpha):
            raise ValueError("interval values and alpha must be finite")
        if values[0] < 1.0:
            raise ValueError(f"smallest interval value must be >= 1, got {values[0]}")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError(f"interval values must be strictly increasing, got {values}")
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if values[-1] + alpha > _MAX_INTERVAL_END:
            raise ValueError(f"t_k + alpha must be at most 2**511, got {values[-1] + alpha}")
        object.__setattr__(self, "t", values)
        object.__setattr__(self, "alpha", float(alpha))

    @property
    def k(self) -> int:
        return len(self.t)

    @cached_property
    def sq_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Squared lower/upper interval bounds, the package-wide membership convention."""
        t = np.array(self.t)
        hi = t + self.alpha
        lo2 = t * t
        hi2 = hi * hi
        lo2.setflags(write=False)
        hi2.setflags(write=False)
        return lo2, hi2

    def smallest_label(self, sq_dist: float) -> int | None:
        """1-based index of the first interval containing the distance, or None."""
        lo2, hi2 = self.sq_bounds
        for l in range(self.k):
            if lo2[l] <= sq_dist <= hi2[l]:
                return l + 1
        return None

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "t": list(self.t)}


class Violation(NamedTuple):
    """A triple l1 <= l2 < l3 (1-based) whose third value lands in the forbidden window."""

    l1: int
    l2: int
    l3: int
    forbidden_low: float
    forbidden_high: float


@dataclass(frozen=True)
class HypothesisReport:
    """Result of the near-sum exclusion check on an interval family.

    The check requires, for every 1 <= l1 <= l2 < l3 <= k, that t_l3 avoids the
    closed window [(1 - delta) * (t_l1 + t_l2), t_l1 + t_l2 + 2 * alpha]. The
    upper slack scales with the interval width alpha.
    """

    delta: float
    alpha: float
    holds: bool
    violations: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "alpha": self.alpha,
            "holds": self.holds,
            "violations": [list(v) for v in self.violations],
        }


def check_hypothesis(iv: IntervalFamily, delta: float) -> HypothesisReport:
    """Check the near-sum exclusion condition on the family's distance values.

    Iterates all triples l1 <= l2 < l3 (1-based) and records a violation
    whenever t_l3 lies in the closed window
    [(1 - delta) * (t_l1 + t_l2), t_l1 + t_l2 + 2 * alpha].

    Raises ValueError unless 0 < delta < 1.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    t = iv.t
    k = iv.k
    violations: list[Violation] = []
    for l1 in range(1, k + 1):
        for l2 in range(l1, k + 1):
            s = t[l1 - 1] + t[l2 - 1]
            low = (1.0 - delta) * s
            high = s + 2.0 * iv.alpha
            for l3 in range(l2 + 1, k + 1):
                if low <= t[l3 - 1] <= high:
                    violations.append(Violation(l1, l2, l3, low, high))
    return HypothesisReport(delta, iv.alpha, not violations, tuple(violations))


def _blocked_sq_dists(coords: np.ndarray, block: int = 256):
    """Yield squared distances of all unordered pairs, in (i, j) row-major order."""
    n = coords.shape[0]
    xs = coords[:, 0]
    ys = coords[:, 1]
    for i0 in range(0, n - 1, block):
        i1 = min(i0 + block, n)
        dx = xs[i0:i1, None] - xs[None, i0:]
        dy = ys[i0:i1, None] - ys[None, i0:]
        d2 = dx * dx + dy * dy
        rows = np.arange(i0, i1)[:, None]
        cols = np.arange(i0, n)[None, :]
        yield i0, d2, cols > rows


def min_pairwise_distance(ps: PointSet) -> tuple[float, bool]:
    """Minimum pairwise distance and the separation flag (min >= 1).

    A single point has no pairs; returns (inf, True).
    """
    if ps.n == 1:
        return math.inf, True
    best = math.inf
    for _, d2, mask in _blocked_sq_dists(ps.coords):
        m = d2[mask].min()
        if m < best:
            best = float(m)
    dist = math.sqrt(best)
    return dist, dist >= 1.0


def diameter(ps: PointSet) -> float:
    """Maximum pairwise distance; 0 for a single point."""
    if ps.n == 1:
        return 0.0
    worst = 0.0
    for _, d2, mask in _blocked_sq_dists(ps.coords):
        m = d2[mask].max()
        if m > worst:
            worst = float(m)
    return math.sqrt(worst)


@dataclass(frozen=True)
class VerifierReport:
    """Combined separation / near-sum / count / bound report for one input.

    bound_value is n^2/4 + C*n with a caller-supplied constant C. The report
    only states facts; it never raises on a violated bound. min_distance is
    inf for a single point, which has no pairs; to_dict writes it as None.
    """

    separated: bool
    min_distance: float
    hypothesis: HypothesisReport
    count: "PairCountReport"
    bound_constant: float
    bound_value: float
    within_bound: bool
    diameter: float

    def to_dict(self) -> dict:
        return {
            "separated": self.separated,
            "min_distance": self.min_distance if math.isfinite(self.min_distance) else None,
            "hypothesis": self.hypothesis.to_dict(),
            "count": self.count.to_dict(),
            "bound_constant": self.bound_constant,
            "bound_value": self.bound_value,
            "within_bound": self.within_bound,
            "diameter": self.diameter,
        }


def verify_bound(
    ps: PointSet, iv: IntervalFamily, delta: float, C: float, method: str = "pruned"
) -> VerifierReport:
    """Count qualifying pairs and compare against the quadratic bound n^2/4 + C*n.

    Assembles separation status, the near-sum check at the given delta, the
    pair count, the bound comparison, and the diameter into one report.
    """
    from .counting import count_pairs

    if C < 0:
        raise ValueError(f"bound constant C must be >= 0, got {C}")
    n = ps.n
    bound_value = n * n / 4.0 + C * n
    if not math.isfinite(bound_value):
        raise ValueError(f"bound n^2/4 + C*n is not finite for n={n}, C={C}")
    hypothesis = check_hypothesis(iv, delta)
    min_dist, separated = min_pairwise_distance(ps)
    count = count_pairs(ps, iv, method=method)
    return VerifierReport(
        separated=separated,
        min_distance=min_dist,
        hypothesis=hypothesis,
        count=count,
        bound_constant=float(C),
        bound_value=bound_value,
        within_bound=count.total <= bound_value,
        diameter=diameter(ps),
    )
