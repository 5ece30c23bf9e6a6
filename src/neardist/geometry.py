"""Planar point sets, distance interval families, and pair-count verification.

Distances are Euclidean. A point set is *separated* when its minimum pairwise
distance is at least 1. An interval family is a sorted list of distance values
t_1 < ... < t_k, all at least 1, together with a common width alpha; a pair of
points "qualifies" when its distance falls in some closed interval
[t_l, t_l + alpha].

Floating-point convention used throughout the package: interval membership is
decided by comparing the squared distance dx*dx + dy*dy against the squared
bounds t_l*t_l and (t_l + alpha)**2, with exact binary comparison and no
epsilon slack. Pairs at exactly representable endpoints therefore count, and a
pair in overlapping intervals takes the smallest label. _label_hits is that
rule, behind both pair counts, label_pairs and smallest_label; _sq_dists
evaluates the expression on index arrays, broadcast ones included, and is the
one place the package writes it outside the annealer's placement test and
the counting image pass, which evaluate it on their own arrays.

Coordinates are limited to |x|, |y| <= 2**510 and interval ends to
t_k + alpha <= 2**511, so dx*dx + dy*dy <= 2**1023 and (t_k + alpha)**2 <= 2**1022.

Every grid cell side is a power of two, so every point lies exactly in its
cell (_bucket_cells), and no bracket on squared distances carries slack.
Neither min_pairwise_distance nor diameter scans all pairs, yet both return
exactly what an all-pairs scan of dx*dx + dy*dy would, bit for bit. The
minimum searches a grid of cells sized from an upper bound taken from
neighbours in (x, y) order: O(n log n) plus the pairs in touching cells, O(n)
memory, as the runs of two fixed rows of cells (_touching_runs) that
_run_pairs expands; _run_pairs also expands the brute count's all-pairs runs
and the pruned count's tree leaves, and counting walks dense grids with an
image pass on _bucket_cells' grid. The diameter takes a lower bound from two
farthest-point sweeps and asks the pruned count's walk for the pairs above
it, as one interval with an infinite upper end. _block_bracket, the
slack-free bound on the pairs of two groups of points from their actual
extremes, decides every node pair that walk drops or adds in bulk. Their
docstrings give the exactness arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
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
# Pair distances are evaluated this many at a time, so memory stays O(n).
_PAIR_CHUNK = 1 << 15
# Grid cells per axis at most, so that int64 cell keys stay exact.
_MAX_CELLS = 2.0**30
# Grid extents are raised to at least this, so that cell sides and their
# squares stay normal and x / side finite.
_MIN_EXTENT = 2.0**-480
# Pairs per point the closest-pair grid may search before it halves its cell
# side; above the 139 that points no closer than half the radius can fill.
_PAIR_BUDGET = 160


class PointSet:
    """An ordered, immutable planar point set: point i is row i of `coords`.

    `coords` is a read-only float64 array of shape (n, 2), and `n` its row
    count. The empty set is rejected; duplicate points are allowed (they
    simply fail separation).
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

    @property
    def coords(self) -> np.ndarray:
        """Read-only (n, 2) coordinate array."""
        return self._coords

    @property
    def n(self) -> int:
        return self._coords.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return self._coords.shape == other._coords.shape and bool(
            np.all(self._coords == other._coords)
        )

    def __repr__(self) -> str:
        return f"PointSet(n={self.n})"


@dataclass(frozen=True)
class IntervalFamily:
    """Distance values t_1 < ... < t_k (each >= 1) with common interval width alpha > 0.

    Interval l (1-based) is the closed interval [t_l, t_l + alpha].
    """

    # The field order is the interval file's key order: asdict(iv) is the file.
    alpha: float
    t: tuple[float, ...]

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
        """1-based index of the first interval containing the squared distance, or None."""
        hits = _label_hits(np.array([sq_dist]), *self.sq_bounds)
        return next((l + 1 for l, hit in hits if hit[0]), None)


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


def _sq_dists(xs: np.ndarray, ys: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances of the pairs (i, j), with the package-wide expression."""
    dx = xs[i] - xs[j]
    dy = ys[i] - ys[j]
    return dx * dx + dy * dy


def _label_hits(d2: np.ndarray, lo2: np.ndarray, hi2: np.ndarray):
    """Yield (l, hit) for each 0-based interval l, hit masking the squared
    distances whose smallest qualifying interval is l; stops once none is left.

    The mask of the squared distances still unlabelled is made only when a
    later interval follows, as the complement of the first hit, and is not
    updated after the last one. NaN compares false, so it never hits.
    """
    remaining = None
    for l in range(len(lo2)):
        hit = d2 >= lo2[l]
        hit &= d2 <= hi2[l]
        if remaining is not None:
            hit &= remaining
        yield l, hit
        if l == len(lo2) - 1:
            return
        if remaining is None:
            remaining = ~hit
        else:
            # hit lies inside remaining, so this clears it.
            remaining ^= hit
        if not remaining.any():
            return


class _Cells(NamedTuple):
    """Points bucketed into square cells of the given side, in cell-key order.

    Cell (ix, iy) counts from the cell of the lowest x and y; its key is
    ix * stride + iy with stride = 2 * ny, so a key shifted by a row offset b
    with |b| <= ny never reaches a neighbouring column's cells. The points
    order[starts[c]:starts[c + 1]] lie in the occupied cell keys[c], and
    cell_of[p] is the cell of the point order[p].
    """

    side: float
    nx: int
    ny: int
    stride: int
    order: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    cell_of: np.ndarray


def _bucket_cells(xs: np.ndarray, ys: np.ndarray, side: float) -> _Cells:
    """Cells of a power-of-two side (or inf, one cell) at its multiples: on
    an axis, cell floor(x / side) - floor(x_min / side). The division by a
    power of two, both floors and their small difference are exact, so every
    point lies in its cell, except that x / side underflows for
    |x| < 2**-1022 * side, which moves x by far less than half an ulp of any
    nonzero cell bound. The points are in cell-key order, ties in index
    order: a stable sort.
    """
    ix = (np.floor(xs / side) - np.floor(xs.min() / side)).astype(np.int64)
    iy = (np.floor(ys / side) - np.floor(ys.min() / side)).astype(np.int64)
    nx, ny = int(ix.max()) + 1, int(iy.max()) + 1
    key = ix * (2 * ny) + iy
    # Free the indices, and then the unsorted keys, before the cells are built.
    del ix, iy
    order = np.argsort(key, kind="stable")
    skey = key[order]
    del key
    new = np.concatenate(([True], skey[1:] != skey[:-1]))
    first = np.flatnonzero(new)
    cell_of = np.cumsum(new) - 1
    return _Cells(side, nx, ny, 2 * ny, order, skey[first], np.append(first, len(skey)), cell_of)


def _touching_runs(xs: np.ndarray, ys: np.ndarray, side: float):
    """Every pair of points whose grid cells are equal or adjacent, as runs.

    Cells are squares of the given side, a power of two at least
    extent / _MAX_CELLS so that int64 cell keys stay exact. Two fixed rows
    hold each unordered pair once: a point of the cell with key k pairs with
    the later points of keys k to k + 1 (its own column), and with the
    points of keys k + stride - 1 to k + stride + 1 (the next column). The
    key stride 2 * ny keeps a key shifted by -1 or 1 out of the neighbouring
    column, so each row's points are consecutive in the cell order, and one
    search on the sorted cell keys finds the ends of both. Returns the
    nonempty runs (order, first, lo, length) for _run_pairs, <= 2n of them.
    """
    cells = _bucket_cells(xs, ys, side)
    pos = np.arange(len(cells.order))
    ends = cells.keys + np.array([[2], [cells.stride - 1], [cells.stride + 2]])
    own_hi, next_lo, next_hi = cells.starts[np.searchsorted(cells.keys, ends)][:, cells.cell_of]
    lo = np.concatenate((pos + 1, next_lo))
    length = np.concatenate((own_hi, next_hi)) - lo
    keep = np.flatnonzero(length > 0)
    return cells.order, np.tile(pos, 2)[keep], lo[keep], length[keep]


def _run_pairs(order: np.ndarray, first: np.ndarray, lo: np.ndarray, length: np.ndarray):
    """Yield the pairs of runs as index arrays (i, j), _PAIR_CHUNK at a time:
    the point order[first[r]] pairs with order[lo[r] + k] for 0 <= k < length[r]."""
    run_end = np.cumsum(length)
    run_start = run_end - length
    # Per run, the point and the shift from a pair's position q to its partner's.
    src = order[first]
    shift = lo - run_start
    total = int(run_end[-1]) if len(run_end) else 0
    for q0 in range(0, total, _PAIR_CHUNK):
        q1 = min(q0 + _PAIR_CHUNK, total)
        r0 = int(np.searchsorted(run_end, q0, side="right"))
        r1 = int(np.searchsorted(run_start, q1, side="left"))
        taken = np.minimum(run_end[r0:r1], q1) - np.maximum(run_start[r0:r1], q0)
        run = np.repeat(np.arange(r0, r1), taken)
        pairs = src[run], order[np.arange(q0, q1) + shift[run]]
        # Free the chunk's run index before its pairs are evaluated.
        del run
        yield pairs


def min_pairwise_distance(ps: PointSet) -> tuple[float, bool]:
    """Minimum pairwise distance and the separation flag (min >= 1).

    A single point has no pairs; returns (inf, True).

    The result equals sqrt of the minimum of dx*dx + dy*dy over all pairs,
    bit for bit, without scanning all pairs. delta2, the smallest squared
    distance between points consecutive in (x, y) order, belongs to an actual
    pair, so it bounds the answer from above; let r = sqrt(delta2). Cells of
    side the power of two above r * (1 + 2**-50) are searched over equal and
    adjacent cells only. A pair whose computed squared distance is at most
    r*r, even up to a factor 1 + 4u with u = 2**-53, has exact |dx|, |dy|
    <= r * (1 + 6u), below the side, and every point lies exactly in its
    cell, so the pair lands in the same or an adjacent cell.

    If those cells hold more than _PAIR_BUDGET * n pairs, the closest pair is
    at most r / 2 apart, and so, up to a factor 1 + 4u, is the pair with the
    smallest computed squared distance; r is halved. (Points at least r / 2
    apart leave disjoint disks of radius r / 4, so at most (4 / pi) * 5.002**2
    < 32 of them fit in a cell of side below 2.001r, which makes at most
    (15 + 4 * 31) * n pairs.) The side never drops below extent / _MAX_CELLS;
    a larger side only adds pairs. The minimum over the pairs searched is
    therefore the minimum over all pairs.

    Cost: O(n log n) per halving plus at most _PAIR_BUDGET * n pairs, unless
    the cell side is held at its floor (a tight cluster far from the rest);
    then all pairs in touching cells, at worst all pairs once each. Memory is
    O(n).
    """
    if ps.n == 1:
        return math.inf, True
    coords = ps.coords
    order = np.lexsort((coords[:, 1], coords[:, 0]))
    xs = coords[order, 0]
    ys = coords[order, 1]
    best = float(_sq_dists(xs, ys, np.arange(1, ps.n), np.arange(ps.n - 1)).min())
    if best > 0.0:
        floor = max(float(np.ptp(xs)), float(np.ptp(ys)), _MIN_EXTENT) / _MAX_CELLS
        r2 = best
        while True:
            r = math.sqrt(r2) * (1.0 + 2.0**-50)
            side = math.ldexp(1.0, math.frexp(max(r, floor))[1])
            cells, first, lo, length = _touching_runs(xs, ys, side)
            if r <= floor or length.sum() <= _PAIR_BUDGET * ps.n:
                break
            r2 /= 4.0
        for i, j in _run_pairs(cells, first, lo, length):
            best = min(best, float(_sq_dists(xs, ys, i, j).min()))
    dist = math.sqrt(best)
    return dist, dist >= 1.0


def _cell_extremes(pts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per cell, (x_min, y_min, -x_max, -y_max) of its points
    pts[starts[c]:starts[c + 1]]; pts holds the points in cell order."""
    first = starts[:-1]
    return np.hstack((np.minimum.reduceat(pts, first), -np.maximum.reduceat(pts, first)))


def _block_bracket(ext: np.ndarray, c: np.ndarray, q: np.ndarray):
    """Bounds (low, high) on the computed dx*dx + dy*dy of every pair of a
    point of cell c[m] and a point of cell q[m], given the cells'
    _cell_extremes ext: the pair walk's one node-pair test, behind the
    pruned count, label_pairs and the diameter.

    The bounds need no slack: for a point i of one cell and j of the other,
    fl(x_i - x_j) is monotone in both coordinates, so it lies between
    fl(x_min - x'_max) and fl(x_max - x'_min), from the actual extremes of
    the two cells (likewise in y). Rounded squaring is monotone in |dx| and
    rounded addition in both terms, so dx*dx + dy*dy lies in
    [fl(near_x^2 + near_y^2), fl(far_x^2 + far_y^2)] for the nearest and
    farthest |dx|, |dy| those ranges allow.
    """
    p, q = ext[c], ext[q]
    d_lo = p[:, :2] + q[:, 2:]
    d_hi = -(p[:, 2:] + q[:, :2])
    near = np.maximum(np.maximum(d_lo, -d_hi), 0.0)
    far = np.maximum(-d_lo, d_hi)
    return (near * near).sum(axis=1), (far * far).sum(axis=1)


def diameter(ps: PointSet) -> float:
    """Maximum pairwise distance; 0 for a single point.

    The result equals sqrt of the maximum of dx*dx + dy*dy over all pairs,
    bit for bit. Two farthest-point sweeps give D, the computed squared
    distance of an actual pair, a lower bound. The pruned count's walk
    (counting._visit_hits), given no label to add in bulk, then visits
    exactly the pairs whose computed squared distance exceeds D, as the
    pairs of the one interval [nextafter(D, inf), inf], and the answer is D
    or the largest of theirs. The walk drops every node pair whose
    _block_bracket lies below that interval; the lower end is above D, so
    that the node pair holding the sweeps' own pair need not be split down
    to it.

    Cost: O(n log n) for the sweeps and the tree, plus the node pairs the
    walk takes and the pairs it evaluates. At n = 16000 that is 160 pairs
    on a jittered grid, 42411 on a uniform disk and 3.8 million (0.015 n^2)
    on a circle; on the two-column construction the root is dropped. All
    pairs at worst. Memory is O(n).
    """
    from .counting import _visit_hits

    n = ps.n
    if n == 1:
        return 0.0
    xs, ys = ps.coords.T
    every = np.arange(n)
    best = float(_sq_dists(xs, ys, int(np.argmax(_sq_dists(xs, ys, 0, every))), every).max())
    above = [best]

    def keep(l, hit, i, j):
        i, j = (np.broadcast_to(v, hit.shape)[hit] for v in (i, j))
        above.append(float(_sq_dists(xs, ys, i, j).max(initial=best)))

    lo2, hi2 = np.array([np.nextafter(best, math.inf)]), np.array([math.inf])
    _visit_hits(ps.coords, lo2, hi2, keep, np.empty(0, dtype=np.int64))
    return math.sqrt(max(above))


@dataclass(frozen=True)
class VerifierReport:
    """Combined separation / near-sum / count / bound report for one input.

    bound_value is n^2/4 + C*n with a caller-supplied constant C. The report
    only states facts; it never raises on a violated bound. min_distance is
    inf for a single point, which has no pairs; the CLI writes it as null.
    """

    separated: bool
    min_distance: float
    hypothesis: HypothesisReport
    count: "PairCountReport"
    bound_constant: float
    bound_value: float
    within_bound: bool
    diameter: float


def verify_bound(ps: PointSet, iv: IntervalFamily, delta: float, C: float) -> VerifierReport:
    """Count qualifying pairs (pruned) and compare against the bound n^2/4 + C*n.

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
    count = count_pairs(ps, iv, method="pruned")
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
