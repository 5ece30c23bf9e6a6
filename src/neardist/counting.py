"""Exact counting of point pairs whose distance falls in an interval family.

Both counts and label_pairs walk their pairs with one loop (_candidate_pairs):
points are bucketed into square cells, and a batch of offset rows at a time,
geometry's _join_cells pairs every occupied cell with the points of the cells
at a run of offsets, which _block_runs and _run_pairs expand a fixed-size
chunk at a time. The join reads a run's points from a prefix-count table over
the cell keys when that table is no larger than the join's queries (dense
grids), and from a search on the sorted cell keys otherwise. "brute" walks
every unordered pair: one cell, and the one offset row (0, 0, 0). "pruned"
and label_pairs use the fixed-radius cell-list search of Bentley, Stanat and
Williams, 1977, over a union of thin annuli: _offset_rows enumerates the cell
offsets whose distance bracket meets some interval, row by row from the
annuli, on the cell side that _choose_label_grid's cost model picks. At its
coarsest, one cell, it is the all-pairs walk, so no input costs more than
O(n^2) time. Memory stays O(n + chunk) for both counts and
O(n + chunk + output) for label_pairs, about 62 bytes a pair at its peak.

The pruned count need not evaluate every candidate pair. The join pairs each
occupied cell with a run of partner cells per offset row; when the squared
distances of such a (row, cell) block are bracketed, from the actual extremes
of its points, inside one interval and away from every earlier one, the
count adds the block's pairs to that label in bulk, and when the bracket
misses every interval it drops the block (_block_labels, _add_decided). The
column constructions put nearly all of their pairs into such blocks.
label_pairs needs the pairs themselves and expands every block.

Every evaluated pair's squared distance comes from geometry._sq_dists, the
expression dx*dx + dy*dy, and is labelled by geometry._label_hits, the
package's one smallest-label rule, so the methods agree exactly, including on
interval endpoints. The cell-offset brackets carry a small relative
inflation so that skipping an offset stays conservative under floating-point
rounding; the bulk brackets need none, as rounding is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    IntervalFamily, PointSet, _block_bracket, _block_runs, _bucket_cells, _cell_extremes,
    _join_cells, _label_hits, _run_pairs, _sq_dists,
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
# A (row, cell) block of the join is checked for a bulk add only when it holds
# at least this many pairs, so that the check costs less than the pairs.
_BULK_MIN_PAIRS = 64


@dataclass(frozen=True)
class PairCountReport:
    """Total qualifying pairs plus the per-interval breakdown by smallest label.

    per_interval[l - 1] counts pairs whose smallest qualifying interval index
    is l; the entries sum to total.
    """

    total: int
    per_interval: tuple[int, ...]
    method: str


def _sq_bracket(da, db, side: float):
    """Conservative (min, max) of dx*dx + dy*dy over two points in cells whose
    indices differ by (da, db) >= 0 on the two axes, for cells of the given side.

    A bound that overflows is infinite and stays valid: an infinite maximum
    skips nothing, and cells more than 2**511 apart hold no pair at all.
    """
    # An adjacent offset's gap is 0 whatever the side, inf included (no 0 * inf).
    gmin_a = np.where(da > 1, (da - 1) * side, 0.0)
    gmin_b = np.where(db > 1, (db - 1) * side, 0.0)
    with np.errstate(over="ignore"):
        bmin2 = (gmin_a**2 + gmin_b**2) * (1.0 - _BRACKET_SLACK)
        bmax2 = (((da + 1) * side) ** 2 + ((db + 1) * side) ** 2) * (1.0 + _BRACKET_SLACK)
    return bmin2, bmax2


def count_pairs(ps: PointSet, iv: IntervalFamily, method: str = "brute") -> PairCountReport:
    """Count unordered pairs with distance in some closed interval [t_l, t_l + alpha].

    Returns the total together with the per-interval breakdown by smallest
    qualifying index. Both methods produce identical counts from the same
    walk (_candidate_pairs). "brute" walks every pair, on one cell (a side of
    inf) with the one offset row (0, 0, 0); "pruned" walks the offset rows
    whose distance range meets an interval, on the grid label_pairs uses,
    adds the cell blocks whose pairs share one label in bulk, and is the
    faster path on large inputs.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    lo2, hi2 = iv.sq_bounds
    xs = ps.coords[:, 0]
    ys = ps.coords[:, 1]
    per = np.zeros(iv.k, dtype=np.int64)
    if method == "brute":
        row = np.zeros(1, dtype=np.int64)
        pairs = _candidate_pairs(_bucket_cells(xs, ys, math.inf), (row, row, row))
    else:
        grid, rows, bulk = _choose_label_grid(ps.coords, lo2, hi2, True)
        adds = (_cell_extremes(ps.coords[grid.order], grid.starts), lo2, hi2, per) if bulk else None
        pairs = _candidate_pairs(grid, rows, adds)
    for i, j in pairs:
        for l, hit in _label_hits(_sq_dists(xs, ys, i, j), lo2, hi2):
            per[l] += int(np.count_nonzero(hit))
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


def _choose_label_grid(coords: np.ndarray, lo2: np.ndarray, hi2: np.ndarray, bulk: bool):
    """The cheapest label grid by a cost model, with its offset rows.

    Sides run from twice the extent (one cell: the all-pairs scan) down by
    halves to extent / 2**_LABEL_LEVELS. The cost counts, per offset row run,
    a key search or table lookup per occupied cell and a run per point, and
    bounds the candidate pairs of each offset by the sum of squared cell
    counts (Cauchy-Schwarz). With bulk (the count, which can add decided
    blocks in bulk), that bound is scaled by the share of the join's pairs
    left undecided by _block_labels, measured where the join has at most n
    (row, cell) blocks and taken as 1 elsewhere. Halving the side never
    removes a row run or an occupied cell, so the search stops once that
    overhead alone reaches the best cost.

    Returns (grid, rows, measured): measured tells whether the share was
    measured on the grid, and so whether adding blocks in bulk pays there.
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
        pair_cost = _COST_PAIR * offsets * float((np.diff(grid.starts) ** 2).sum())
        measured = bulk and len(a) * len(grid.keys) <= n
        if measured:
            lo, hi = _join_cells(grid, *rows)
            ext = _cell_extremes(coords[grid.order], grid.starts)
            decided = _block_labels(grid, ext, a, b_lo, lo, hi, lo2, hi2)[2]
            same = ((a == 0) & (b_lo == 0))[:, None]
            total = int(_block_pairs(np.diff(grid.starts), same, hi - lo).sum())
            pair_cost *= 1.0 - int(decided.sum()) / total if total else 0.0
        cost = overhead + pair_cost
        if cost < best_cost:
            best, best_cost = (grid, rows, measured), cost
    return best


def _block_pairs(size, same, partners):
    """Pairs in a block of a cell of size points with partners partner points.

    On the row through (0, 0) (same), the partners include the cell itself,
    and a point pairs only with the later points of its cell.
    """
    return size * partners - same * (size * (size + 1) // 2)


def _block_labels(grid, ext, a, b_lo, lo, hi, lo2: np.ndarray, hi2: np.ndarray):
    """The (row, cell) blocks of a _join_cells join whose pairs share one label.

    ext is _cell_extremes of the grid; only blocks of at least
    _BULK_MIN_PAIRS pairs are checked. Returns (r, c, pairs, label) for the
    decided blocks: each of the pairs[m] pairs of the block (r[m], c[m]) has
    the smallest qualifying label label[m] (0-based), or none of them
    qualifies (label[m] == len(lo2)), by geometry._block_bracket, which
    holds every pair's computed squared distance with no slack. Every other
    block must be expanded to its pairs.
    """
    size = np.diff(grid.starts)
    # size * partners bounds a block's pairs from above, so this keeps every
    # block that holds enough; the exact count trims the rest.
    r, c = np.nonzero(hi - lo >= -(-_BULK_MIN_PAIRS // size))
    q_lo, q_hi = lo[r, c], hi[r, c]
    pairs = _block_pairs(size[c], (a[r] == 0) & (b_lo[r] == 0), q_hi - q_lo)
    big = pairs >= _BULK_MIN_PAIRS
    r, c, pairs = r[big], c[big], pairs[big]
    # The partners' cells are consecutive.
    b0, b1 = _block_bracket(ext, c, grid.cell_of[q_lo[big]], grid.cell_of[q_hi[big] - 1] + 1)
    label = np.full(len(r), len(lo2))
    open_ = np.ones(len(r), dtype=bool)
    for l in range(len(lo2)):
        meets = open_ & (b0 <= hi2[l]) & (b1 >= lo2[l])
        label[meets] = np.where((b0[meets] >= lo2[l]) & (b1[meets] <= hi2[l]), l, -1)
        open_ &= ~meets
    m = label >= 0
    return r[m], c[m], pairs[m], label[m]


def _add_decided(grid, a, b_lo, lo, hi, ext, lo2: np.ndarray, hi2: np.ndarray, per: np.ndarray):
    """Adds each block of the join (lo, hi) that _block_labels decides to per
    in bulk, and empties it in place (hi = lo)."""
    r, c, pairs, label = _block_labels(grid, ext, a, b_lo, lo, hi, lo2, hi2)
    some = label < len(per)
    np.add.at(per, label[some], pairs[some])
    hi[r, c] = lo[r, c]


def _candidate_pairs(grid, rows, adds=None):
    """Yield index arrays (i, j) that together hold, once each, the pairs of
    points whose grid cells differ by an offset of the rows (a, b_lo, b_hi).

    _join_cells, _block_runs and _run_pairs expand a batch of rows at a time,
    _PAIR_CHUNK pairs at a time. Pairs come in no particular order, and i < j
    need not hold. Given adds = (ext, lo2, hi2, per), the count's bulk adds,
    _add_decided first adds the blocks whose pairs all share one smallest
    label to per and drops those with no qualifying pair; only the rest are
    yielded.

    Why no qualifying pair is skipped on _choose_label_grid's grid and rows:
    cells have side s >= extent / 2**20, so a point's cell coordinate
    (x - x0) / s is off by less than 2**-31 of a cell after rounding. Two
    points whose cells differ by (a, b) are then at least max(|a| - 1, 0) and
    at most |a| + 1 cells apart in x up to that error (likewise in y), and
    their computed dx*dx + dy*dy lies within a few units in the last place of
    the exact value; _sq_bracket widens both bounds by _BRACKET_SLACK = 4e-9,
    which covers the sum of these errors (about 1e-9) four times over. So a
    pair with its computed squared distance in some [t_l^2, (t_l + alpha)^2]
    sits at an offset whose bracket meets that interval. _offset_rows keeps
    every such offset (it trims a row run only where _sq_bracket itself
    misses the interval), and the join returns every point of every cell at a
    kept offset. Each unordered pair is met once: offsets cover a half-plane,
    and inside one cell each point pairs with the later points only. Skipping
    an offset needs _BRACKET_SLACK; a block that _add_decided adds or drops
    does not: it is bracketed from its points' actual extremes, exactly with
    no slack (see _block_labels), so its pairs are counted as their own
    evaluation would count them.
    """
    a, b_lo, b_hi = rows
    batch = max(1, _LABEL_BATCH // len(grid.order))
    for r0 in range(0, len(a), batch):
        part = a[r0 : r0 + batch], b_lo[r0 : r0 + batch], b_hi[r0 : r0 + batch]
        lo, hi = _join_cells(grid, *part)
        if adds is not None:
            _add_decided(grid, *part[:2], lo, hi, *adds)
        runs = _block_runs(grid, *part[:2], lo, hi)
        # Free the batch's blocks, and after the last batch the grid, before
        # the pairs are yielded; free the runs before the next batch is joined.
        del lo, hi
        if r0 + batch >= len(a):
            del grid
        yield from _run_pairs(*runs)
        del runs


def label_pairs(ps: PointSet, iv: IntervalFamily) -> LabeledPairs:
    """All qualifying pairs (i, j, l) with i < j and l the smallest interval index.

    Entries are sorted by (i, j); l is 1-based. The result equals, bit for
    bit, a scan of all pairs with the package's membership test: the pairs
    come from the pruned count's walk without its bulk adds, which skips none
    that qualifies.
    """
    n = ps.n
    xs = ps.coords[:, 0]
    ys = ps.coords[:, 1]
    lo2, hi2 = iv.sq_bounds
    empty = np.zeros(0, dtype=np.int64)
    keys, found = [empty], [empty]
    # Only the walk holds the grid, so the grid is freed before the final sort.
    for i, j in _candidate_pairs(*_choose_label_grid(ps.coords, lo2, hi2, False)[:2]):
        for l, hit in _label_hits(_sq_dists(xs, ys, i, j), lo2, hi2):
            at = np.flatnonzero(hit)
            p, q = i[at], j[at]
            keys.append(np.minimum(p, q) * n + np.maximum(p, q))
            found.append(np.full(len(at), l + 1))
    key = np.concatenate(keys)
    del keys
    by = np.argsort(key)
    i, j = np.divmod(key[by], n)
    del key
    return LabeledPairs(i, j, np.concatenate(found)[by])
