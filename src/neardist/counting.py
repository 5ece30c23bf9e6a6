"""Exact counting of point pairs whose distance falls in an interval family.

Two interchangeable methods are provided. "brute" evaluates every unordered
pair in vectorized blocks. "pruned" and label_pairs share one pair enumerator
(_candidate_pairs, the fixed-radius cell-list search of Bentley, Stanat and
Williams, 1977, over a union of thin annuli). Points are bucketed into square
cells; the cell offsets whose distance bracket meets some interval are
enumerated row by row from the annuli, and each row's run of offsets is joined
to the occupied cells by geometry's cell join (_join_rows, a search on the
sorted cell keys, which the closest-pair search uses too), giving for every
point a contiguous run of partner points. These candidate pairs come in
fixed-size chunks: "pruned" counts the qualifying ones by smallest label, and
label_pairs gathers them. The cell side comes from a cost model over the point
counts per cell and the offset rows; at its coarsest, one cell, the enumerator
is the all-pairs scan, so no input costs more than O(n^2) time. Memory stays
O(n + chunk) for the count and O(n + chunk + output) for label_pairs.

Every path computes squared pair distances with the identical expression
dx*dx + dy*dy (geometry._sq_dists for candidate pairs, the blocked scan for
brute) and labels them with geometry._label_hits, the package's one
smallest-label rule, so the methods agree exactly, including on interval
endpoints. The cell brackets carry a small relative inflation so that skipping
an offset stays conservative under floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    IntervalFamily, PointSet, _bucket_cells, _join_rows, _label_hits, _run_pairs, _sq_dists,
)

__all__ = ["PairCountReport", "LabeledPairs", "count_pairs", "label_pairs"]

# Relative safety margin on squared cell-distance bounds; dominates the
# worst-case rounding of coordinate-to-cell assignment by many orders.
_BRACKET_SLACK = 4e-9

_METHODS = ("brute", "pruned")

# Enumerator grids have at most 2**_LABEL_LEVELS cells per axis, so the cell
# assignment rounds by under 2**-31 of a cell and _BRACKET_SLACK covers it.
_LABEL_LEVELS = 20
# Extents below this are raised to it, so that cell sides and their squares
# stay normal floats.
_MIN_LABEL_EXTENT = 2.0**-480
# Offset row runs are joined a batch at a time, about this many points' runs.
_LABEL_BATCH = 1 << 17
# Relative costs of the enumerator grid: per occupied cell and per point for
# each offset row run, and per candidate pair evaluated.
_COST_CELL = 4.0
_COST_POINT = 1.0
_COST_PAIR = 1.5


@dataclass(frozen=True)
class PairCountReport:
    """Total qualifying pairs plus the per-interval breakdown by smallest label.

    per_interval[l - 1] counts pairs whose smallest qualifying interval index
    is l; the entries sum to total.
    """

    total: int
    per_interval: tuple[int, ...]
    method: str

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "per_interval": list(self.per_interval),
            "method": self.method,
        }


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


def _accumulate_labels(d2: np.ndarray, lo2: np.ndarray, hi2: np.ndarray, per: np.ndarray) -> None:
    """Add smallest-label counts of the given squared distances into per."""
    for l, hit in _label_hits(d2, lo2, hi2):
        per[l] += int(np.count_nonzero(hit))


def _count_brute(coords: np.ndarray, iv: IntervalFamily) -> np.ndarray:
    lo2, hi2 = iv.sq_bounds
    per = np.zeros(iv.k, dtype=np.int64)
    for _, d2, mask in _blocked_sq_dists(coords):
        _accumulate_labels(d2[mask], lo2, hi2, per)
    return per


def _count_pruned(coords: np.ndarray, iv: IntervalFamily) -> np.ndarray:
    lo2, hi2 = iv.sq_bounds
    per = np.zeros(iv.k, dtype=np.int64)
    xs = coords[:, 0]
    ys = coords[:, 1]
    for i, j in _candidate_pairs(coords, lo2, hi2):
        _accumulate_labels(_sq_dists(xs, ys, i, j), lo2, hi2, per)
    return per


def _sq_bracket(da, db, side: float):
    """Conservative (min, max) of dx*dx + dy*dy over two points in cells whose
    indices differ by (da, db) >= 0 on the two axes, for cells of the given side.

    A bound that overflows is infinite and stays valid: an infinite maximum
    skips nothing, and cells more than 2**511 apart hold no pair at all.
    """
    gmin_a = np.maximum(da - 1, 0) * side
    gmin_b = np.maximum(db - 1, 0) * side
    with np.errstate(over="ignore"):
        bmin2 = (gmin_a**2 + gmin_b**2) * (1.0 - _BRACKET_SLACK)
        bmax2 = (((da + 1) * side) ** 2 + ((db + 1) * side) ** 2) * (1.0 + _BRACKET_SLACK)
    return bmin2, bmax2


def count_pairs(ps: PointSet, iv: IntervalFamily, method: str = "brute") -> PairCountReport:
    """Count unordered pairs with distance in some closed interval [t_l, t_l + alpha].

    Returns the total together with the per-interval breakdown by smallest
    qualifying index. Both methods produce identical counts. "brute" scans
    all pairs; "pruned" evaluates only the pairs at cell offsets whose
    distance range meets an interval, from the enumerator label_pairs uses,
    and is the faster path on large inputs.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    if ps.n < 2:
        per = np.zeros(iv.k, dtype=np.int64)
    elif method == "brute":
        per = _count_brute(ps.coords, iv)
    else:
        per = _count_pruned(ps.coords, iv)
    per_tuple = tuple(int(c) for c in per)
    return PairCountReport(total=sum(per_tuple), per_interval=per_tuple, method=method)


@dataclass(frozen=True, eq=False)
class LabeledPairs:
    """Qualifying pairs as parallel int64 arrays, sorted by (i, j) with i < j.

    label holds the 1-based smallest qualifying interval index. len() is the
    pair count; iteration yields (i, j, label) triples of Python ints.
    """

    i: np.ndarray
    j: np.ndarray
    label: np.ndarray

    def __len__(self) -> int:
        return len(self.i)

    def __iter__(self):
        return zip(self.i.tolist(), self.j.tolist(), self.label.tolist())


def _offset_rows(side: float, nx: int, ny: int, lo2: np.ndarray, hi2: np.ndarray):
    """Every cell offset whose _sq_bracket meets an interval, as row runs.

    Returns (a, b_lo, b_hi): offsets (a, b) for b_lo <= b <= b_hi, over the
    half-plane a > 0 or a == 0 <= b, with |a| < nx and |b| < ny. The offset
    (0, 0) stands for the pairs inside one cell. Each interval's offsets in a
    row form one run of |b| (both bracket ends grow with |b|); a run is found
    from the annulus by square roots, widened by two, then trimmed with
    _sq_bracket itself, so nothing proportional to nx * ny is built.
    """
    rows = []
    # No offset inside the grid is farther than this many cells; capping the
    # radii there changes no run and keeps their squares finite.
    cap = nx + ny + 4.0
    for l in range(len(lo2)):
        # In cell units: bmin2 <= hi2 needs max(a-1, 0)^2 + max(b-1, 0)^2 <= top,
        # and bmax2 >= lo2 needs (a+1)^2 + (b+1)^2 >= bottom.
        top = min(math.sqrt(hi2[l] / (1.0 - _BRACKET_SLACK)) / side, cap) ** 2
        bottom = min(math.sqrt(lo2[l] / (1.0 + _BRACKET_SLACK)) / side, cap) ** 2
        a_hi = min(nx - 1.0, math.sqrt(top) + 2.0)
        a_lo = max(0.0, math.sqrt(max(bottom - float(ny) * ny, 0.0)) - 2.0)
        if a_lo > a_hi:
            continue
        a = np.arange(int(a_lo), int(a_hi) + 1, dtype=np.float64)
        ga = np.maximum(a - 1.0, 0.0)
        b_hi = np.minimum(np.floor(np.sqrt(np.maximum(top - ga * ga, 0.0))) + 2.0, ny - 1.0)
        b_lo = np.maximum(np.ceil(np.sqrt(np.maximum(bottom - (a + 1.0) ** 2, 0.0))) - 2.0, 0.0)
        while True:
            live = b_lo <= b_hi
            high = live & (_sq_bracket(a, b_hi, side)[0] > hi2[l])
            low = live & (_sq_bracket(a, b_lo, side)[1] < lo2[l])
            if not (high.any() or low.any()):
                break
            b_hi -= high
            b_lo += low
        rows.append(np.stack((a, b_lo, b_hi))[:, live])
    a, b_lo, b_hi = np.concatenate(rows or [np.zeros((3, 0))], axis=1).astype(np.int64)
    if not len(a):
        return a, b_lo, b_hi
    # Merge the runs of different intervals that overlap or touch in a row.
    by = np.lexsort((b_lo, a))
    a, b_lo, b_hi = a[by], b_lo[by], b_hi[by]
    # Keys grow with the row first, so a running max never crosses rows.
    reach = np.maximum.accumulate(a * (ny + 1) + b_hi) - a * (ny + 1)
    new = np.ones(len(a), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b_lo[1:] > reach[:-1] + 1)
    a, b_lo = a[new], b_lo[new]
    b_hi = reach[np.append(np.flatnonzero(new)[1:], len(new)) - 1]
    # Rows a > 0 take the mirror image too; a run through b = 0 stays whole.
    mirror = (a > 0) & (b_lo > 0)
    whole = (a > 0) & (b_lo == 0)
    return (
        np.concatenate((a, a[mirror])),
        np.concatenate((np.where(whole, -b_hi, b_lo), -b_hi[mirror])),
        np.concatenate((b_hi, -b_lo[mirror])),
    )


def _choose_label_grid(coords: np.ndarray, lo2: np.ndarray, hi2: np.ndarray):
    """The cheapest label grid by a cost model, with its offset rows.

    Sides run from twice the extent (one cell: the all-pairs scan) down by
    halves to extent / 2**_LABEL_LEVELS. The cost counts, per offset row run,
    a key search per occupied cell and a run per point, and bounds the
    candidate pairs of each offset by the sum of squared cell counts
    (Cauchy-Schwarz). Halving the side never removes a row run or an occupied
    cell, so the search stops once that overhead alone reaches the best cost.
    """
    n = coords.shape[0]
    extent = max(float(np.ptp(coords[:, 0])), float(np.ptp(coords[:, 1])), _MIN_LABEL_EXTENT)
    best, best_cost = None, math.inf
    for level in range(-1, _LABEL_LEVELS + 1):
        grid = _bucket_cells(coords[:, 0], coords[:, 1], math.ldexp(extent, -level))
        rows = _offset_rows(grid.side, grid.nx, grid.ny, lo2, hi2)
        a, b_lo, b_hi = rows
        overhead = len(a) * (_COST_CELL * len(grid.keys) + _COST_POINT * n)
        if overhead >= best_cost:
            break
        offsets = float((b_hi - b_lo + 1).sum())
        cost = overhead + _COST_PAIR * offsets * float((np.diff(grid.starts) ** 2).sum())
        if cost < best_cost:
            best, best_cost = (grid, rows), cost
    return best


def _candidate_pairs(coords: np.ndarray, lo2: np.ndarray, hi2: np.ndarray):
    """Yield index arrays (i, j) that together hold every qualifying pair once.

    The grid and its offset rows come from _choose_label_grid; _join_rows
    gives every point the points of the cells at each kept offset, a batch of
    rows at a time, and _run_pairs expands them _PAIR_CHUNK pairs at a time.
    Pairs come in no particular order, and i < j need not hold.

    Why no qualifying pair is skipped: cells have side s >= extent / 2**20,
    so a point's cell coordinate (x - x0) / s is off by less than 2**-31 of a
    cell after rounding. Two points whose cells differ by (a, b) are then at
    least max(|a| - 1, 0) and at most |a| + 1 cells apart in x up to that
    error (likewise in y), and their computed dx*dx + dy*dy lies within a few
    units in the last place of the exact value; _sq_bracket widens both
    bounds by _BRACKET_SLACK = 4e-9, which covers the sum of these errors
    (about 1e-9) four times over. So a pair with its computed squared
    distance in some [t_l^2, (t_l + alpha)^2] sits at an offset whose bracket
    meets that interval. _offset_rows keeps every such offset (it trims a row
    run only where _sq_bracket itself misses the interval), and the join
    returns every point of every cell at a kept offset. Each unordered pair is
    met once: offsets cover a half-plane, and inside one cell each point pairs
    with the later points only.
    """
    grid, (a, b_lo, b_hi) = _choose_label_grid(coords, lo2, hi2)
    batch = max(1, _LABEL_BATCH // coords.shape[0])
    for r0 in range(0, len(a), batch):
        rows = slice(r0, r0 + batch)
        yield from _run_pairs(*_join_rows(grid, a[rows], b_lo[rows], b_hi[rows]))


def label_pairs(ps: PointSet, iv: IntervalFamily) -> LabeledPairs:
    """All qualifying pairs (i, j, l) with i < j and l the smallest interval index.

    Entries are sorted by (i, j); l is 1-based. The result equals, bit for
    bit, a scan of all pairs with the package's membership test: the pairs
    come from _candidate_pairs, which skips none that qualifies.
    """
    n = ps.n
    xs = ps.coords[:, 0]
    ys = ps.coords[:, 1]
    lo2, hi2 = iv.sq_bounds
    empty = np.zeros(0, dtype=np.int64)
    found_i, found_j, found_l = [empty], [empty], [empty]
    for i, j in _candidate_pairs(ps.coords, lo2, hi2):
        for l, hit in _label_hits(_sq_dists(xs, ys, i, j), lo2, hi2):
            at = np.flatnonzero(hit)
            found_i.append(i[at])
            found_j.append(j[at])
            found_l.append(np.full(len(at), l + 1))
    p = np.concatenate(found_i)
    q = np.concatenate(found_j)
    i = np.minimum(p, q)
    j = np.maximum(p, q)
    by = np.argsort(i * n + j)
    return LabeledPairs(i[by], j[by], np.concatenate(found_l)[by])
