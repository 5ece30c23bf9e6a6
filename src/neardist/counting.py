"""Exact counting of point pairs whose distance falls in an interval family.

"brute" evaluates every unordered pair, as one run set of geometry's
_run_pairs: each point with every later one. "pruned", label_pairs, the
graph's degrees (graphs.NearEqualGraph) and geometry.diameter take one
walk, _visit_hits, with one of two passes.

The tree is dual-tree pair counting on a quadtree (Gray and Moore, "N-body
problems in statistical learning", NIPS 2000; Moore et al., "Fast
algorithms and efficient statistics: N-point correlation functions", 2001):
node pairs, from the root paired with itself down, are dropped, added in
bulk, evaluated or split by geometry._block_bracket on their points' actual
extremes. The column constructions put nearly all of their pairs into bulk
node pairs, and far clusters are dropped at a coarse level. The image pass
(_image_hits) serves dense grids, whose cells hold few points each: it lays
the cells out as arrays with one layer per point of a cell and evaluates
each cell offset whose bracket meets an interval (_offsets, one bracket
over every offset of the grid, n at a time) as two shifted slices of them,
the usual cell-list layout of molecular simulation (Allen and Tildesley,
Computer Simulation of Liquids, 1987). Memory stays O(n + chunk) for both
counts and O(n + chunk + output) for label_pairs, which holds one int64 a
pair while it walks and sorts them in place: about 24 bytes a pair at its
peak on the image pass.

Every evaluated pair's squared distance is the expression dx*dx + dy*dy
(geometry._sq_dists on the tree), and is labelled by geometry._label_hits,
the package's one smallest-label rule, so the methods and passes agree
exactly, including on interval endpoints. The tree's exactness is one rule:
every node pair it drops or adds in bulk is decided by _block_bracket on
actual extremes, so its cells only group points. The image's cells are
exact, their sides being powers of two, so its offset bracket (_sq_bracket)
carries no slack either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    _MIN_EXTENT, _PAIR_CHUNK, IntervalFamily, PointSet, _block_bracket, _bucket_cells, _Cells,
    _cell_extremes, _label_hits, _run_pairs, _sq_dists,
)

__all__ = ["PairCountReport", "LabeledPairs", "count_pairs", "label_pairs"]

_METHODS = ("brute", "pruned")

# Relative costs of the image pass: per (offset, layer) call, and per slot
# pair evaluated. Fitted in process on jittered grids of 500 to 16000 points
# at sides 2 to 8, with k = 3 and 5, in a unit of about 10 ns: a call about
# 30 us and a slot pair 2-4 ns. They are kept as fitted, so that no pick
# moves; with a visitor that does nothing, a least-squares fit now gives
# about 2.0 ns a slot pair and 4 us a call (2 shared vCPUs, numpy 2.4), so
# the model overprices the calls a little.
_COST_CALL = 3000.0
_COST_SLOT = 0.4
# The tree evaluates a node pair's pairs once it holds at most this many.
_LEAF_PAIRS = 256


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
    qualifying index. Both methods produce identical counts. "brute"
    evaluates every pair, each point with every later one; "pruned" takes
    the walk of label_pairs (_visit_hits), adds the node pairs whose pairs
    share one label in bulk, and is the faster path on large inputs.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    lo2, hi2 = iv.sq_bounds
    per = np.zeros(iv.k, dtype=np.int64)

    def count(l, hit, i, j):
        per[l] += int(np.count_nonzero(hit))

    if method == "brute":
        pos = np.arange(ps.n - 1)
        _visit_runs(*ps.coords.T, (np.arange(ps.n), pos, pos + 1, ps.n - 1 - pos), lo2, hi2, count)
    else:
        _visit_hits(ps.coords, lo2, hi2, count, per)
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


def _spans(start, length):
    """start[r], start[r] + 1, ..., start[r] + length[r] - 1 for every r, in one array."""
    return np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - start, length)


def _meeting(b0, b1, lo2: np.ndarray, hi2: np.ndarray):
    """The range [l0, l1) of the intervals that meet each bracket [b0, b1]:
    lo2 and hi2 both increase, so those with hi2 >= b0 and lo2 <= b1 form a
    range, empty where l0 >= l1."""
    return np.searchsorted(hi2, b0), np.searchsorted(lo2, b1, side="right")


def _offsets(grid: _Cells, lo2: np.ndarray, hi2: np.ndarray):
    """Every cell offset of the grid whose _sq_bracket meets an interval,
    with the range [l0, l1) of the intervals it meets (_meeting), as int64
    arrays (a, b, l0, l1) over the half-plane a > 0 or a == 0 <= b, with
    a < nx and |b| < ny. The offset (0, 0) stands for the pairs inside one
    cell. The bracket is taken at every (a, |b|), a block of rows of at most
    n offsets at a time, and rows a > 0 take the mirror image (a, -b) too.
    """
    b = np.arange(grid.ny)
    step = max(1, len(grid.order) // grid.ny)
    parts = []
    for first in range(0, grid.nx, step):
        a = np.arange(first, min(first + step, grid.nx))[:, None]
        l0, l1 = _meeting(*_sq_bracket(a, b, grid.side), lo2, hi2)
        keep = l0 < l1
        for sign, take in ((1, keep), (-1, keep & (a > 0) & (b > 0))):
            ka, kb = np.nonzero(take)
            parts.append((ka + first, sign * kb, l0[take], l1[take]))
    return tuple(np.concatenate(v) for v in zip(*parts))


def _image_pick(coords: np.ndarray, sides, lo2: np.ndarray, hi2: np.ndarray):
    """The cheapest image pass (_image_hits) by the cost model at one of the
    power-of-two sides, coarsest first, as (grid, offsets) with the grid's
    _offsets, or None where no image fits.

    An image costs, per offset, layer of its m-layer image and interval
    checked there, a call and the m * nx * ny slots it evaluates; it fits
    where it holds at most 4n slots, so that its memory stays O(n). Halving
    the side never shrinks nx * ny, so the search stops once that passes 4n.
    """
    n = len(coords)
    best, best_cost = None, math.inf
    for side in sides:
        grid = _bucket_cells(coords[:, 0], coords[:, 1], side)
        if grid.nx * grid.ny > 4 * n:
            break
        m = int(np.diff(grid.starts).max())
        if m * grid.nx * grid.ny <= 4 * n:
            offsets = _offsets(grid, lo2, hi2)
            l0, l1 = offsets[2:]
            cost = float((l1 - l0).sum()) * m * (_COST_CALL + _COST_SLOT * m * grid.nx * grid.ny)
            if cost < best_cost:
                best, best_cost = (grid, offsets), cost
    return best


class _Tree:
    """The points sorted once by a Morton key, as a quadtree: the nodes of
    level L, 0 <= L <= 31, are the occupied cells of side top / 2**L, each a
    contiguous range of the sorted points. On an axis, a point's finest cell
    is floor(x / fine), fine = top / 2**31, less the multiple of 2**30 at or
    below the least such cell; the division by a power of two, the floors and
    their difference are exact, so the index lies in [0, 2**31). The key
    interleaves the two indices' bits, so a level-L node's points share
    key >> 2 * (31 - L).
    """

    def __init__(self, coords: np.ndarray):
        extent = max(float(np.ptp(coords[:, 0])), float(np.ptp(coords[:, 1])), _MIN_EXTENT)
        self.top = math.ldexp(1.0, math.frexp(extent)[1] + 1)
        fine = math.ldexp(self.top, -31)
        key = np.zeros(len(coords), dtype=np.int64)
        for axis in (0, 1):
            cell = np.floor(coords[:, axis] / fine)
            v = (cell - np.floor(cell.min() / 2.0**30) * 2.0**30).astype(np.int64)
            for shift, mask in ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                                (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                                (1, 0x5555555555555555)):
                v = (v | (v << shift)) & mask
            key |= v << (1 - axis)
        self.order = np.argsort(key, kind="stable")
        self.key = key[self.order]
        self.pts = coords[self.order]
        self.levels = {}

    def level(self, level: int):
        """(bounds, ext) of the level's nodes: node c holds the points
        order[bounds[c]:bounds[c + 1]], and ext is their _cell_extremes."""
        if level not in self.levels:
            prefix = self.key >> (62 - 2 * level)
            bounds = np.flatnonzero(np.diff(prefix, prepend=-1, append=-1))
            self.levels[level] = bounds, _cell_extremes(self.pts, bounds)
        return self.levels[level]

    def runs(self, level: int, a: np.ndarray, b: np.ndarray):
        """The pairs of the node pairs (a, b) as _run_pairs runs, one per
        point of the smaller node (inside one node, each point with the
        later ones)."""
        bounds = self.level(level)[0]
        size = np.diff(bounds)
        swap = size[a] > size[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        r = np.repeat(np.arange(len(a)), size[a])
        pos = _spans(bounds[a], size[a])
        same = (a == b)[r]
        lo = np.where(same, pos + 1, bounds[b][r])
        length = np.where(same, bounds[a + 1][r] - pos - 1, size[b][r])
        keep = length > 0
        return self.order, pos[keep], lo[keep], length[keep]


def _child_pairs(fa: np.ndarray, fb: np.ndarray, ca: np.ndarray, cb: np.ndarray):
    """The child pairs (i, j) of node pairs whose children are the nodes fa
    to fa + ca - 1 and fb to fb + cb - 1, each child with each: a node with
    itself takes each pair of its children once (i <= j), and of two nodes
    the first one's children all come first."""
    r = np.repeat(np.arange(len(fa)), ca * cb)
    q = _spans(np.zeros_like(ca), ca * cb)
    i, j = fa[r] + q // cb[r], fb[r] + q % cb[r]
    keep = i <= j
    return i[keep], j[keep]


class _Walk(NamedTuple):
    """What _visit_hits walked: "image" with its grid and _offsets, or "tree";
    the node pairs the tree took (before any image) and pairs it evaluated."""

    walk: str
    grid: _Cells | None
    offsets: tuple | None
    node_pairs: int
    pairs: int


def _visit_runs(xs: np.ndarray, ys: np.ndarray, runs, lo2: np.ndarray, hi2: np.ndarray, visit):
    """Call visit(l, hit, i, j) for the pairs of the _run_pairs runs, as _visit_hits does."""
    for i, j in _run_pairs(*runs):
        for l, hit in _label_hits(_sq_dists(xs, ys, i, j), lo2, hi2):
            visit(l, hit, i, j)


def _visit_hits(coords: np.ndarray, lo2: np.ndarray, hi2: np.ndarray, visit, per: np.ndarray) -> _Walk:
    """Call visit(l, hit, i, j) for the qualifying pairs of the points: the
    pairs of the ids i and j (broadcast against hit) where hit holds have
    the smallest qualifying 0-based label l, by geometry._label_hits. Each
    qualifying pair is visited once, in one hit, except those the tree adds
    to per in bulk; a per of no labels (label_pairs, geometry.diameter)
    takes no bulk add.

    The tree (_Tree) takes node pairs, a node with itself included, from
    the root down: it drops one whose _block_bracket meets no interval
    (_meeting); one whose bracket lies inside the first interval it meets
    it adds to per under that label, or evaluates whole where per has no
    such label; it evaluates one of at most _LEAF_PAIRS pairs, or at the
    finest level; and it splits the rest. It walks breadth first, holding
    its bulk adds apart and visiting no pair, while the next level would
    hold at most n node pairs. At the first level past n it prices the
    image there and finer (_image_pick), and a fitting image walks every
    pair in the tree's place. Otherwise the tree goes on depth first, n
    child pairs at a time. A callback, not a generator, so that no caller
    holds a chunk while the next is evaluated.
    """
    n = len(coords)
    xs, ys = coords.T
    tree = _Tree(coords)
    held, deferred, deciding = np.zeros_like(per), [], True
    node_pairs = pairs = 0

    def evaluate(level, a, b, count):
        """Visit the pairs of the node pairs (a, b), about _PAIR_CHUNK at a time."""
        nonlocal pairs
        pairs += int(count.sum())
        group = np.cumsum(count) // _PAIR_CHUNK
        cuts = [*np.flatnonzero(np.diff(group, prepend=-1)).tolist(), len(a)]
        for s, e in zip(cuts, cuts[1:]):
            _visit_runs(xs, ys, tree.runs(level, a[s:e], b[s:e]), lo2, hi2, visit)

    def settle():
        """Add the held bulk adds to per and visit the deferred leaves."""
        np.add(per, held, out=per)
        held[:] = 0
        for leaves in deferred:
            evaluate(*leaves)
        deferred.clear()

    def take(level, a, b):
        """Drop the node pairs (a, b), or hold them as bulk adds or leaves; return those to split."""
        nonlocal node_pairs
        node_pairs += len(a)
        bounds, ext = tree.level(level)
        size = np.diff(bounds)
        count = np.where(a == b, size[a] * (size[a] - 1) // 2, size[a] * size[b])
        b0, b1 = _block_bracket(ext, a, b)
        l0, l1 = _meeting(b0, b1, lo2, hi2)
        at = np.minimum(l0, len(lo2) - 1)
        inside = (b0 >= lo2[at]) & (b1 <= hi2[at])
        bulk = inside & (l0 < len(per))
        live = (l0 < l1) & ~bulk
        leaf = live & (inside | (count <= _LEAF_PAIRS) | (level == 31))
        np.add.at(held, l0[bulk], count[bulk])
        deferred.append((level, a[leaf], b[leaf], count[leaf]))
        split = live & ~leaf
        return a[split], b[split]

    root = np.zeros(1, dtype=np.int64)
    stack = [(0, *take(0, root, root))]
    while stack:
        level, a, b = stack.pop()
        if not len(a):
            continue
        first = np.searchsorted(tree.level(level + 1)[0], tree.level(level)[0])
        ca, cb = first[a + 1] - first[a], first[b + 1] - first[b]
        ends = np.cumsum(np.where(a == b, ca * (ca + 1) // 2, ca * cb))
        if ends[-1] > n:
            if deciding:
                sides = (math.ldexp(tree.top, -finer) for finer in range(level + 1, 32))
                pick = _image_pick(coords, sides, lo2, hi2)
                if pick is not None:
                    del tree, stack, deferred, a, b, first, ca, cb, ends
                    _image_hits(coords, *pick, lo2, hi2, visit)
                    return _Walk("image", *pick, node_pairs, pairs)
                deciding = False
            cut = max(1, int(np.searchsorted(ends, n, side="right")))
            stack.append((level, a[cut:], b[cut:]))
            a, b, ca, cb = a[:cut], b[:cut], ca[:cut], cb[:cut]
        stack.append((level + 1, *take(level + 1, *_child_pairs(first[a], first[b], ca, cb))))
        if not deciding:
            settle()
    settle()
    return _Walk("tree", None, None, node_pairs, pairs)


def _image_hits(coords: np.ndarray, grid, offsets, lo2: np.ndarray, hi2: np.ndarray, visit):
    """Call visit(l, hit, i, j) for the pairs of points whose grid cells
    differ by one of the offsets (a, b, l0, l1) of _offsets, as _visit_hits
    does, from an image of the grid.

    The image lays the cells out as dense (m, nx, ny) arrays of x, y and
    point id, m the largest cell count: layer k holds each cell's k-th point
    in the cell order, and an empty slot holds coordinates NaN and id -1. At
    the offset (a, b) a slice of the cells (cx, cy) and the slice shifted by
    (a, b) hold the cells the offset pairs; each layer k of the first is
    evaluated against every layer of the second, or only the later layers
    at (0, 0), so the pairs are exactly those of the points whose cells
    differ by the offset, with no join, no runs and no gathers. d2 is dx*dx + dy*dy, whatever the
    sign of dx, as fl(p - q) = -fl(q - p), evaluated in place; a slot pair
    with an empty slot gets d2 = NaN, and no comparison with NaN holds, so
    no interval holds it and it needs no mask. Every real pair's d2 is
    finite, as coordinates are at most 2**510. Only the intervals [l0, l1)
    that meet the offset's _sq_bracket are checked: every pair at the offset
    lies inside it, so the smallest qualifying label is unchanged.

    Why no qualifying pair is skipped: the cell side is a power of two, so
    _bucket_cells puts every point in its cell exactly, and _sq_bracket
    holds every pair's computed dx*dx + dy*dy at its cell offset with no
    slack. So a qualifying pair sits at an offset whose bracket meets its
    interval, and _offsets keeps every such offset. Each unordered pair is
    met once: the offsets cover a half-plane, and inside one cell each
    point pairs with the later points only.
    """
    nx, ny = grid.nx, grid.ny
    m = int(np.diff(grid.starts).max())
    slot = (np.arange(len(grid.order)) - grid.starts[grid.cell_of],
            *np.divmod(grid.keys[grid.cell_of], grid.stride))
    ids = np.full((m, nx, ny), -1, dtype=np.int64)
    ids[slot] = grid.order
    xs, ys = np.full((2, m, nx, ny), np.nan)
    xs[slot], ys[slot] = coords[grid.order].T
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


def label_pairs(ps: PointSet, iv: IntervalFamily) -> LabeledPairs:
    """All qualifying pairs (i, j, l) with i < j and l the smallest interval index.

    Entries are sorted by (i, j); l is 1-based. The result equals, bit for
    bit, a scan of all pairs with the package's membership test: the pairs
    come from the pruned count's walk, given a per of no labels, so that it
    adds no node pair in bulk, and it skips none that qualifies.
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

    # Only the walk holds its tree or grid, so both are freed before the final sort.
    _visit_hits(ps.coords, lo2, hi2, keep, np.empty(0, dtype=np.int64))
    # Rebinding packed frees the chunks; the keys are sorted in place and reused for j.
    packed = np.concatenate(packed)
    packed.sort()
    label = packed % k1
    packed //= k1
    return LabeledPairs(packed // n, np.remainder(packed, n, out=packed), label)
