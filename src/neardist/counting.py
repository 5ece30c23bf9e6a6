"""Exact counting of point pairs whose distance falls in an interval family.

Points are bucketed into square cells, and both counts and label_pairs walk
the pairs of cells at a set of cell offsets, with one of two passes
(_visit_hits). "brute" walks every unordered pair: one cell, and the one
offset row (0, 0, 0). "pruned" and label_pairs use the fixed-radius
cell-list search of Bentley, Stanat and Williams, 1977, over a union of thin
annuli: _offset_rows enumerates the cell offsets whose distance bracket meets
some interval, row by row from the annuli, on the cell side and with the
pass that _choose_label_grid's cost model picks. At its coarsest it is the
all-pairs walk, so no input costs more than O(n^2) time.

The run path (_candidate_pairs) serves every grid: a batch of offset rows at
a time, geometry's _join_cells pairs every occupied cell with the points of
the cells at a run of offsets, which _block_runs and _run_pairs expand a
fixed-size chunk at a time. The join finds a run's points by a search on the
sorted cell keys. The image pass (_image_hits) serves dense grids, whose
cells hold few points each: it lays the cells out as arrays with one layer
per point of a cell and evaluates each offset as two shifted slices of them,
the usual cell-list layout of molecular simulation (Allen and Tildesley,
Computer Simulation of Liquids, 1987). Memory stays O(n + chunk) for both
counts and O(n + chunk + output) for label_pairs, which holds one int64 a
pair while it walks and sorts them in place: about 24 bytes a pair at its
peak on the image pass.

Neither pruned walk evaluates every candidate pair. The join pairs each
occupied cell with a run of partner cells per offset row; when the squared
distances of such a (row, cell) block are bracketed, from the actual extremes
of its points, away from every interval, both drop the block, and when they
are bracketed inside one interval and away from every earlier one, the count
adds the block's pairs to that label in bulk (_block_labels, _add_decided).
label_pairs expands such a block: all its pairs are output. The column
constructions put nearly all of their pairs into decided blocks.

Every evaluated pair's squared distance is the expression dx*dx + dy*dy
(geometry._sq_dists on the run path), and is labelled by
geometry._label_hits, the package's one smallest-label rule, so the methods
and passes agree exactly, including on interval endpoints. No bracket
carries slack: cell sides are powers of two, so every point lies exactly in
its cell, and rounding is monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _MAX_CELLS, _MIN_EXTENT, IntervalFamily, PointSet, _block_bracket, _block_runs, _bucket_cells,
    _cell_extremes, _join_cells, _label_hits, _run_pairs, _sq_dists,
)

__all__ = ["PairCountReport", "LabeledPairs", "count_pairs", "label_pairs"]

_METHODS = ("brute", "pruned")

# Offset row runs are joined a batch at a time, about this many points' runs.
_LABEL_BATCH = 1 << 17
# Relative costs of the run path: per occupied cell and per point for each
# offset row run, and per candidate pair evaluated.
_COST_CELL = 4.0
_COST_POINT = 1.0
_COST_PAIR = 1.5
# Relative costs of the image pass, in the same unit: per (offset, layer)
# call, and per slot pair evaluated. Measured in process on jittered grids of
# 500 to 16000 points at sides 2 to 8, with k = 3 and 5: a unit of the run
# path took 4-19 ns (about 10), a call about 30 us and a slot pair 2-4 ns.
# All five constants are kept as fitted, so that no pick moves: on the same
# grids, with a visitor that does nothing, a least-squares fit of the image
# pass now gives about 2.0 ns a slot pair and 4 us a call (2 shared vCPUs,
# numpy 2.4), so the model overprices it a little.
_COST_CALL = 3000.0
_COST_SLOT = 0.4
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
    """Bounds (min, max) on the computed dx*dx + dy*dy of two points in cells
    whose indices differ by (da, db) >= 0 on the two axes, with no slack: the
    cells are exact, so |dx| lies between (da - 1) * side (0 for da <= 1) and
    (da + 1) * side, both exact, and rounding is monotone (see _block_bracket).

    A bound that overflows is infinite and stays valid: an infinite maximum
    skips nothing, and cells more than 2**511 apart hold no pair at all.
    """
    # An adjacent offset's gap is 0 whatever the side, inf included (no 0 * inf).
    gmin_a = np.where(da > 1, (da - 1) * side, 0.0)
    gmin_b = np.where(db > 1, (db - 1) * side, 0.0)
    with np.errstate(over="ignore"):
        return gmin_a**2 + gmin_b**2, ((da + 1) * side) ** 2 + ((db + 1) * side) ** 2


def count_pairs(ps: PointSet, iv: IntervalFamily, method: str = "brute") -> PairCountReport:
    """Count unordered pairs with distance in some closed interval [t_l, t_l + alpha].

    Returns the total together with the per-interval breakdown by smallest
    qualifying index. Both methods produce identical counts from the same
    walk (_visit_hits). "brute" walks every pair on the run path, on one cell
    (a side of inf) with the one offset row (0, 0, 0); "pruned" walks the
    offset rows whose distance range meets an interval, on the grid and with
    the pass that label_pairs uses, adds the cell blocks whose pairs share one
    label in bulk on the run path, and is the faster path on large inputs.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    lo2, hi2 = iv.sq_bounds
    per = np.zeros(iv.k, dtype=np.int64)
    if method == "brute":
        row = np.zeros(1, dtype=np.int64)
        walk = _bucket_cells(*ps.coords.T, math.inf), (row, row, row), "runs"
    else:
        walk = _choose_label_grid(ps.coords, lo2, hi2)

    def count(l, hit, i, j):
        per[l] += int(np.count_nonzero(hit))

    _visit_hits(ps.coords, *walk, lo2, hi2, count, None if method == "brute" else per)
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
    row form one run of |b| (both bracket ends grow with |b|); the runs of
    every (interval, row) pair are found at once from the annuli by square
    roots, widened by two, then trimmed with _sq_bracket itself, so nothing
    proportional to nx * ny is built.
    """
    # No offset inside the grid is farther than this many cells; capping the
    # radii there changes no run and keeps their squares finite. In cell units:
    # bmin2 <= hi2 needs max(a-1, 0)^2 + max(b-1, 0)^2 <= top, and bmax2 >= lo2
    # needs (a+1)^2 + (b+1)^2 >= bottom.
    cap = nx + ny + 4.0
    top = np.minimum(np.sqrt(hi2) / side, cap) ** 2
    bottom = np.minimum(np.sqrt(lo2) / side, cap) ** 2
    a_hi = np.minimum(nx - 1.0, np.sqrt(top) + 2.0)
    a_lo = np.maximum(0.0, np.sqrt(np.maximum(bottom - float(ny) * ny, 0.0)) - 2.0)
    first = a_lo.astype(np.int64)
    length = np.where(a_lo > a_hi, 0, a_hi.astype(np.int64) + 1 - first)
    l = np.repeat(np.arange(len(lo2)), length)
    a = _spans(first, length).astype(np.float64)
    ga = np.maximum(a - 1.0, 0.0)
    b_hi = np.minimum(np.floor(np.sqrt(np.maximum(top[l] - ga * ga, 0.0))) + 2.0, ny - 1.0)
    b_lo = np.maximum(np.ceil(np.sqrt(np.maximum(bottom[l] - (a + 1.0) ** 2, 0.0))) - 2.0, 0.0)
    lo2, hi2 = lo2[l], hi2[l]
    while True:
        live = b_lo <= b_hi
        high = live & (_sq_bracket(a, b_hi, side)[0] > hi2)
        low = live & (_sq_bracket(a, b_lo, side)[1] < lo2)
        if not (high.any() or low.any()):
            break
        b_hi -= high
        b_lo += low
    a, b_lo, b_hi = np.stack((a, b_lo, b_hi))[:, live].astype(np.int64)
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


def _spans(start, length):
    """start[r], start[r] + 1, ..., start[r] + length[r] - 1 for every r, in one array."""
    return np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - start, length)


def _meeting(b0, b1, lo2: np.ndarray, hi2: np.ndarray):
    """The range [l0, l1) of the intervals that meet each bracket [b0, b1]:
    lo2 and hi2 both increase, so those with hi2 >= b0 and lo2 <= b1 form a
    range, empty where l0 >= l1."""
    return np.searchsorted(hi2, b0), np.searchsorted(lo2, b1, side="right")


def _offset_labels(rows, side: float, lo2: np.ndarray, hi2: np.ndarray):
    """The offsets (a, b) of the offset rows one by one, each with the range
    [l0, l1) of the intervals that meet its _sq_bracket (_meeting)."""
    a, b_lo, b_hi = rows
    length = b_hi - b_lo + 1
    a, b = np.repeat(a, length), _spans(b_lo, length)
    return a, b, *_meeting(*_sq_bracket(a, np.abs(b), side), lo2, hi2)


def _choose_label_grid(coords: np.ndarray, lo2: np.ndarray, hi2: np.ndarray):
    """The cheapest label grid and pass by a cost model, with its offset rows.

    Sides are powers of two, from 2**(e + 1) for an extent below 2**e (at
    most two cells per axis: the all-pairs walk) down by halves to extent /
    _MAX_CELLS, the closest-pair grid's limit. Each side prices two passes.
    The run path (_candidate_pairs) costs, per offset row run, a key search
    per occupied cell and a run per point, and per offset the candidate
    pairs, bounded by the sum of squared cell counts (Cauchy-Schwarz) times
    the share of the join's pairs left undecided by _block_labels, as the
    count walks it: measured where the join has at most n (row, cell) blocks
    and taken as 1 elsewhere. The image pass (_image_hits) costs, per
    offset, layer of its m-layer image and interval checked there, a call
    and the m * nx * ny slots it evaluates; it is priced only where the
    image holds at most 4n slots, so that its memory stays O(n). Halving the
    side never removes a row run or an occupied cell, nor shrinks nx * ny,
    so the search stops once the run path's overhead alone reaches the best
    cost and the image no longer fits.

    Returns (grid, rows, walk): walk is "image" for the image pass and
    "runs" for the run path.
    """
    n = coords.shape[0]
    extent = max(float(np.ptp(coords[:, 0])), float(np.ptp(coords[:, 1])), _MIN_EXTENT)
    best, best_cost, order = None, math.inf, None
    side = math.ldexp(1.0, math.frexp(extent)[1] + 1)
    while side >= extent / _MAX_CELLS:
        grid = _bucket_cells(coords[:, 0], coords[:, 1], side, order)
        order = grid.order
        rows = _offset_rows(grid.side, grid.nx, grid.ny, lo2, hi2)
        a, b_lo, b_hi = rows
        offsets = float((b_hi - b_lo + 1).sum())
        size = np.diff(grid.starts)
        m = int(size.max())
        if m * grid.nx * grid.ny <= 4 * n:
            l0, l1 = _offset_labels(rows, grid.side, lo2, hi2)[2:]
            checks = float((l1 - l0).sum())
            cost = checks * m * (_COST_CALL + _COST_SLOT * m * grid.nx * grid.ny)
            if cost < best_cost:
                best, best_cost = (grid, rows, "image"), cost
        overhead = len(a) * (_COST_CELL * len(grid.keys) + _COST_POINT * n)
        if overhead < best_cost:
            pair_cost = _COST_PAIR * offsets * float((size**2).sum())
            if len(a) * len(grid.keys) <= n:
                lo, hi = _join_cells(grid, *rows)
                ext = _cell_extremes(coords[grid.order], grid.starts)
                decided = _block_labels(grid, ext, a, b_lo, lo, hi, lo2, hi2)[2]
                same = ((a == 0) & (b_lo == 0))[:, None]
                total = int(_block_pairs(size, same, hi - lo).sum())
                pair_cost *= 1.0 - int(decided.sum()) / total if total else 0.0
            cost = overhead + pair_cost
            if cost < best_cost:
                best, best_cost = (grid, rows, "runs"), cost
        elif grid.nx * grid.ny > 4 * n:
            break
        side /= 2.0
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
    _BULK_MIN_PAIRS pairs are checked. A block is decided when its bracket
    by geometry._block_bracket, which holds every pair's computed squared
    distance with no slack, meets no interval (label len(lo2)), or lies
    inside the first one it meets (_meeting), whose 0-based label all its
    pairs then take; every other block must be expanded to its pairs.
    Returns (r, c, pairs, label) for the decided blocks (r[m], c[m]).
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
    l0, l1 = _meeting(b0, b1, lo2, hi2)
    at = np.minimum(l0, len(lo2) - 1)
    label = np.where(l0 >= l1, len(lo2), np.where((b0 >= lo2[at]) & (b1 <= hi2[at]), l0, -1))
    m = label >= 0
    return r[m], c[m], pairs[m], label[m]


def _add_decided(grid, a, b_lo, lo, hi, ext, lo2: np.ndarray, hi2: np.ndarray, per: np.ndarray):
    """Empties in place (hi = lo) each block of the join (lo, hi) that
    _block_labels finds with no qualifying pair or with a label below
    len(per), adding the latter's pairs to per in bulk."""
    r, c, pairs, label = _block_labels(grid, ext, a, b_lo, lo, hi, lo2, hi2)
    add = label < len(per)
    np.add.at(per, label[add], pairs[add])
    done = add | (label == len(lo2))
    hi[r[done], c[done]] = lo[r[done], c[done]]


def _candidate_pairs(grid, rows, adds=None):
    """The run path: yield index arrays (i, j) that together hold, once each,
    the pairs of points whose grid cells differ by an offset of the rows
    (a, b_lo, b_hi), on any grid; _image_hits yields the same pairs on dense
    grids, offset by offset.

    _join_cells, _block_runs and _run_pairs expand a batch of rows at a time,
    _PAIR_CHUNK pairs at a time. Pairs come in no particular order, and i < j
    need not hold. Given adds = (ext, lo2, hi2, per), _add_decided first
    drops the blocks with no qualifying pair and adds to per those whose
    pairs all share a smallest label below len(per); only the rest are
    yielded.

    Why no qualifying pair is skipped on _choose_label_grid's grid and rows:
    the cell side is a power of two, so _bucket_cells puts every point in its
    cell exactly, and _sq_bracket holds every pair's computed dx*dx + dy*dy
    at its cell offset with no slack, by the monotone rounding argument of
    geometry._block_bracket. So a pair with its computed squared distance in
    some [t_l^2, (t_l + alpha)^2] sits at an offset whose bracket meets that
    interval. _offset_rows keeps every such offset (it trims a row run only
    where _sq_bracket itself misses the interval), and the join, like the
    image pass, returns every point of every cell at a kept offset. Each
    unordered pair is met once: offsets cover a half-plane, and inside one
    cell each point pairs with the later points only. A block that
    _add_decided adds or drops is bracketed from its points' actual extremes
    (see _block_labels), so its pairs are counted as their own evaluation
    would count them.
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


def _image_hits(coords: np.ndarray, grid, rows, lo2: np.ndarray, hi2: np.ndarray, visit):
    """Call visit(l, hit, i, j) for the pairs of points whose grid cells
    differ by an offset of the rows, as _visit_hits does, from an image of
    the grid.

    The image lays the cells out as dense (m, nx, ny) arrays of x, y and
    point id, m the largest cell count: layer k holds each cell's k-th point
    in the cell order, and an empty slot holds coordinates NaN and id -1. At
    the offset (a, b) a slice of the cells (cx, cy) and the slice shifted by
    (a, b) hold the cells the offset pairs; each layer k of the first is
    evaluated against every layer of the second, or only the later layers
    at (0, 0), so the pairs are exactly those the join yields at the offset,
    with no join, no runs and no gathers. d2 is dx*dx + dy*dy, whatever the
    sign of dx, as fl(p - q) = -fl(q - p), evaluated in place; a slot pair
    with an empty slot gets d2 = NaN, and no comparison with NaN holds, so
    no interval holds it and it needs no mask. Every real pair's d2 is
    finite, as coordinates are at most 2**510. Only the intervals that meet
    the offset's _sq_bracket are checked: every pair at the offset lies
    inside it, so the smallest qualifying label is unchanged.
    """
    nx, ny = grid.nx, grid.ny
    m = int(np.diff(grid.starts).max())
    slot = (np.arange(len(grid.order)) - grid.starts[grid.cell_of],
            *np.divmod(grid.keys[grid.cell_of], grid.stride))
    ids = np.full((m, nx, ny), -1, dtype=np.int64)
    ids[slot] = grid.order
    xs, ys = np.full((2, m, nx, ny), np.nan)
    xs[slot], ys[slot] = coords[grid.order].T
    offsets = _offset_labels(rows, grid.side, lo2, hi2)
    for a, b, l0, l1 in zip(*(v.tolist() for v in offsets)):
        cells = slice(0, nx - a), slice(max(0, -b), ny - max(0, b))
        partners = slice(a, nx), slice(max(0, b), ny - max(0, -b))
        same = a == 0 and b == 0
        for k in range(m - 1 if same else m):
            p = (k, *cells)
            q = (slice(k + 1 if same else 0, m), *partners)
            d2 = xs[p] - xs[q]
            d2 *= d2
            dy = ys[p] - ys[q]
            dy *= dy
            d2 += dy
            for l, hit in _label_hits(d2, lo2[l0:l1], hi2[l0:l1]):
                visit(l0 + l, hit, ids[p], ids[q])


def _visit_hits(coords: np.ndarray, grid, rows, walk: str, lo2: np.ndarray, hi2: np.ndarray,
                visit, per: np.ndarray | None = None) -> None:
    """Call visit(l, hit, i, j) for the qualifying pairs of the grid's cells
    at the offset rows, walked by the pass walk of _choose_label_grid: the
    pairs of the ids i and j (broadcast against hit) where hit holds have
    the smallest qualifying 0-based label l, by geometry._label_hits.

    "image" walks the pairs with _image_hits, and "runs" with
    _candidate_pairs and geometry._sq_dists; given per, the run path first
    drops or adds to per the blocks that _add_decided decides, and visits
    none of their pairs. Each qualifying pair that is not added in bulk is
    visited once, in one hit. A callback, not a generator, so that no caller
    holds a chunk while the next one is evaluated; the grid is not held
    here, so that the run path can free it before its last batch.
    """
    if walk == "image":
        return _image_hits(coords, grid, rows, lo2, hi2, visit)
    xs, ys = coords.T
    adds = None if per is None else (_cell_extremes(coords[grid.order], grid.starts), lo2, hi2, per)
    pairs = _candidate_pairs(grid, rows, adds)
    del grid
    for i, j in pairs:
        for l, hit in _label_hits(_sq_dists(xs, ys, i, j), lo2, hi2):
            visit(l, hit, i, j)


def label_pairs(ps: PointSet, iv: IntervalFamily) -> LabeledPairs:
    """All qualifying pairs (i, j, l) with i < j and l the smallest interval index.

    Entries are sorted by (i, j); l is 1-based. The result equals, bit for
    bit, a scan of all pairs with the package's membership test: the pairs
    come from the pruned count's walk, given a per of no labels, so that it
    adds no block in bulk, and it skips none that qualifies.
    """
    n = ps.n
    lo2, hi2 = iv.sq_bounds
    # One int64 a pair, (min * n + max) * (k + 1) + label, sorted in place:
    # no index array and no copy of the pairs beside the three outputs.
    k1 = iv.k + 1
    if n * n * k1 > 2**63:
        raise ValueError(f"label_pairs needs n * n * (k + 1) <= 2**63, got n={n}, k={iv.k}")
    packed = [np.zeros(0, dtype=np.int64)]

    def keep(l, hit, i, j):
        p = np.broadcast_to(i, hit.shape)[hit]
        q = np.broadcast_to(j, hit.shape)[hit]
        packed.append((np.minimum(p, q) * n + np.maximum(p, q)) * k1 + (l + 1))

    # Only the walk holds the grid, so the grid is freed before the final sort.
    _visit_hits(ps.coords, *_choose_label_grid(ps.coords, lo2, hi2), lo2, hi2, keep, np.empty(0))
    packed = np.concatenate(packed)
    return LabeledPairs(*_sort_pairs(packed, n, k1))


def _sort_pairs(key: np.ndarray, n: int, k1: int):
    """(a, b, label) of the int64 keys (a * n + b) * k1 + label, 0 <= label <
    k1, sorted by (a, b, label): key is sorted in place and reused for b."""
    key.sort()
    label = key % k1
    key //= k1
    return key // n, np.remainder(key, n, out=key), label
