"""Exact counting of point pairs whose distance falls in an interval family.

Two interchangeable methods are provided. "brute" evaluates every unordered
pair in vectorized blocks. "pruned" buckets points into square grid cells and
classifies each pair of cells by the range of distances it can realize: cell
pairs whose range misses every interval are skipped, cell pairs whose range
sits inside a single interval (with no smaller-index overlap) are added
wholesale, and only straddling cell pairs are evaluated point by point. The
classification depends only on the cell-index offset, so it is computed once
per offset in a small lookup table.

Both methods compute squared pair distances with the identical expression
dx*dx + dy*dy and test them against the family's squared bounds, so their
reports agree exactly, including on interval endpoints. The cell-range bounds
carry a small relative inflation so that skip and bulk-add decisions stay
conservative under floating-point rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import IntervalFamily, PointSet

__all__ = ["PairCountReport", "count_pairs", "label_pairs"]

# Cells per axis are capped so the cell-pair scan stays well below the pair
# scan; 20 balances scan cost against bracket tightness at desk scales.
_GRID_CELLS_PER_AXIS = 20
# Relative safety margin on squared cell-distance bounds; dominates the
# worst-case rounding of coordinate-to-cell assignment by many orders.
_BRACKET_SLACK = 4e-9

_METHODS = ("brute", "pruned")


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
    remaining = np.ones(d2.shape, dtype=bool)
    for l in range(len(lo2)):
        hit = remaining & (d2 >= lo2[l]) & (d2 <= hi2[l])
        per[l] += int(np.count_nonzero(hit))
        remaining &= ~hit
        if not remaining.any():
            break


def _count_brute(coords: np.ndarray, iv: IntervalFamily) -> np.ndarray:
    lo2, hi2 = iv.sq_bounds
    per = np.zeros(iv.k, dtype=np.int64)
    for _, d2, mask in _blocked_sq_dists(coords):
        _accumulate_labels(d2[mask], lo2, hi2, per)
    return per


def _cell_grid(coords: np.ndarray, alpha: float):
    """Bucket points into square cells; side >= max(1, alpha), capped cells per axis."""
    xs = coords[:, 0]
    ys = coords[:, 1]
    x0 = xs.min()
    y0 = ys.min()
    extent = max(float(xs.max() - x0), float(ys.max() - y0))
    side = max(1.0, alpha)
    if extent > side * _GRID_CELLS_PER_AXIS:
        side = extent / _GRID_CELLS_PER_AXIS
    ix = np.floor((xs - x0) / side).astype(np.int64)
    iy = np.floor((ys - y0) / side).astype(np.int64)
    stride = int(iy.max()) + 2
    key = ix * stride + iy
    order = np.argsort(key, kind="stable")
    skey = key[order]
    n = coords.shape[0]
    starts = np.flatnonzero(np.concatenate(([True], skey[1:] != skey[:-1])))
    counts = np.diff(np.concatenate((starts, [n])))
    cell_ix = skey[starts] // stride
    cell_iy = skey[starts] % stride
    return side, order, starts, counts, cell_ix, cell_iy


def _offset_code_table(side: float, span: int, iv: IntervalFamily) -> np.ndarray:
    """Classify every cell-index offset (dx, dy) in [0, span]^2.

    Codes: 0..k-1 = every realizable distance lies in that interval and none
    smaller (bulk-add with that label); k = realizable range misses every
    interval (skip); k+1 = range straddles a boundary (test pairs).
    """
    lo2, hi2 = iv.sq_bounds
    k = iv.k
    d = np.arange(span + 1, dtype=np.float64)
    gmin = np.maximum(d - 1, 0) * side
    gmax = (d + 1) * side
    bmin2 = (gmin[:, None] ** 2 + gmin[None, :] ** 2) * (1.0 - _BRACKET_SLACK)
    bmax2 = (gmax[:, None] ** 2 + gmax[None, :] ** 2) * (1.0 + _BRACKET_SLACK)
    first = np.full((span + 1, span + 1), k, dtype=np.int64)
    for l in range(k - 1, -1, -1):
        first[(bmin2 <= hi2[l]) & (bmax2 >= lo2[l])] = l
    code = np.full(first.shape, k, dtype=np.int16)
    kept = first < k
    fi = first[kept]
    inside = (bmin2[kept] >= lo2[fi]) & (bmax2[kept] <= hi2[fi])
    sub = np.full(fi.shape, k + 1, dtype=np.int16)
    sub[inside] = fi[inside].astype(np.int16)
    code[kept] = sub
    return code


def _all_cell_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All unordered cell-index pairs (a < b) without an m x m mask."""
    lens = (m - 1) - np.arange(m - 1)
    a = np.repeat(np.arange(m - 1, dtype=np.int64), lens)
    off = np.cumsum(lens) - lens
    b = np.arange(lens.sum(), dtype=np.int64) - off[a] + a + 1
    return a, b


def _count_pruned(coords: np.ndarray, iv: IntervalFamily) -> np.ndarray:
    lo2, hi2 = iv.sq_bounds
    k = iv.k
    per = np.zeros(k, dtype=np.int64)
    n = coords.shape[0]
    if n < 2:
        return per

    side, order, starts, counts, cell_ix, cell_iy = _cell_grid(coords, iv.alpha)
    sx = np.ascontiguousarray(coords[order, 0])
    sy = np.ascontiguousarray(coords[order, 1])
    m = len(starts)

    # Pairs within one cell: distance range is [0, side * sqrt(2)], which never
    # sits inside an interval (all t >= 1 > 0), so either skip or test each pair.
    diag2 = 2.0 * side * side * (1.0 + _BRACKET_SLACK)
    if lo2[0] <= diag2:
        for c in np.flatnonzero(counts >= 2):
            s0 = starts[c]
            iu, ju = np.triu_indices(int(counts[c]), 1)
            dx = sx[s0 + iu] - sx[s0 + ju]
            dy = sy[s0 + iu] - sy[s0 + ju]
            _accumulate_labels(dx * dx + dy * dy, lo2, hi2, per)
    if m < 2:
        return per

    span = int(max(cell_ix.max(), cell_iy.max())) + 1
    code_table = _offset_code_table(side, span, iv)

    A, B = _all_cell_pairs(m)
    code = code_table[np.abs(cell_ix[A] - cell_ix[B]), np.abs(cell_iy[A] - cell_iy[B])]

    inside = code < k
    if inside.any():
        products = counts[A[inside]] * counts[B[inside]]
        per += np.bincount(
            code[inside].astype(np.int64), weights=products, minlength=k
        ).astype(np.int64)

    straddle = code == k + 1
    if straddle.any():
        As = A[straddle]
        Bs = B[straddle]
        # Group straddling cell pairs by their (|a|, |b|) shape so each group
        # evaluates as one dense broadcast with no padding.
        shape_key = counts[As] * (int(counts.max()) + 1) + counts[Bs]
        grp = np.argsort(shape_key, kind="stable")
        As = As[grp]
        Bs = Bs[grp]
        shape_key = shape_key[grp]
        bounds = np.flatnonzero(np.concatenate(([True], shape_key[1:] != shape_key[:-1])))
        bounds = np.concatenate((bounds, [len(shape_key)]))
        for g in range(len(bounds) - 1):
            g0, g1 = bounds[g], bounds[g + 1]
            ca = int(counts[As[g0]])
            cb = int(counts[Bs[g0]])
            ia = starts[As[g0:g1]][:, None] + np.arange(ca)[None, :]
            ib = starts[Bs[g0:g1]][:, None] + np.arange(cb)[None, :]
            dx = sx[ia][:, :, None] - sx[ib][:, None, :]
            dy = sy[ia][:, :, None] - sy[ib][:, None, :]
            _accumulate_labels((dx * dx + dy * dy).ravel(), lo2, hi2, per)

    return per


def count_pairs(ps: PointSet, iv: IntervalFamily, method: str = "brute") -> PairCountReport:
    """Count unordered pairs with distance in some closed interval [t_l, t_l + alpha].

    Returns the total together with the per-interval breakdown by smallest
    qualifying index. Both methods produce identical counts; "pruned" is the
    faster path on large inputs.
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


def label_pairs(ps: PointSet, iv: IntervalFamily) -> list[tuple[int, int, int]]:
    """All qualifying pairs as (i, j, l) with i < j and l the smallest interval index.

    Entries are sorted by (i, j); l is 1-based.
    """
    lo2, hi2 = iv.sq_bounds
    out: list[tuple[int, int, int]] = []
    if ps.n < 2:
        return out
    for i0, d2, mask in _blocked_sq_dists(ps.coords):
        labels = np.zeros(d2.shape, dtype=np.int64)
        remaining = mask.copy()
        for l in range(iv.k):
            hit = remaining & (d2 >= lo2[l]) & (d2 <= hi2[l])
            labels[hit] = l + 1
            remaining &= ~hit
        rows, cols = np.nonzero(labels)
        for r, c in zip(rows, cols):
            out.append((i0 + int(r), i0 + int(c), int(labels[r, c])))
    return out
