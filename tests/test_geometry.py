import contextlib
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily,
    PointSet,
    check_hypothesis,
    count_pairs,
    diameter,
    min_pairwise_distance,
    three_column,
    two_column,
    verify_bound,
)
from neardist import counting, geometry
from neardist.geometry import (
    _MAX_CELLS,
    _PAIR_BUDGET,
    _run_pairs,
    _touching_runs,
)

from _oracles import (
    oracle_diameter,
    oracle_label,
    oracle_min_distance,
    oracle_violations,
)
from conftest import forced_image, level_side

GRID = [(float(x), float(y)) for x in range(3) for y in range(3)]


class TestTypes:
    def test_point_set_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet([])

    def test_point_set_rejects_inf(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                PointSet([(0.0, bad)])

    def test_magnitude_limits(self):
        corner = 2.0**510
        ps = PointSet([(-corner, -corner), (corner, corner)])
        assert diameter(ps) == math.sqrt(2.0**1023)
        with pytest.raises(ValueError):
            PointSet([(math.nextafter(corner, math.inf), 0.0)])
        assert IntervalFamily([corner], corner).t == (corner,)
        with pytest.raises(ValueError):
            IntervalFamily([corner], 1.5 * corner)

    def test_point_set_is_read_only(self):
        ps = PointSet([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 5.0

    def test_interval_family_validation(self):
        with pytest.raises(ValueError):
            IntervalFamily([], 1.0)
        with pytest.raises(ValueError):
            IntervalFamily([0.5], 1.0)
        with pytest.raises(ValueError):
            IntervalFamily([1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            IntervalFamily([3.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            IntervalFamily([1.0], 0.0)

    def test_smallest_label(self):
        iv = IntervalFamily([1.0, 1.5], 1.0)
        assert iv.smallest_label(1.6**2) == 1
        assert iv.smallest_label(2.4**2) == 2
        assert iv.smallest_label(9.0) is None

    @pytest.mark.parametrize(
        "t, alpha, at_lower_ends",
        [
            ([1.0, 1.5], 1.0, [1, 1]),  # overlapping: the smaller label wins
            ([1e9, 1e9 + 1.0], 3.0, [1, 1]),
            ([1.0, 4.0, 9.0], 0.5, [1, 2, 3]),
            ([2.0, 7.0, 7.5], 1e-12, [1, 2, 3]),
        ],
    )
    def test_smallest_label_matches_scalar_oracle(self, t, alpha, at_lower_ends):
        iv = IntervalFamily(t, alpha)
        lo2, hi2 = iv.sq_bounds
        assert [iv.smallest_label(float(v)) for v in lo2] == at_lower_ends
        assert [iv.smallest_label(float(v)) for v in hi2] == list(range(1, iv.k + 1))
        # exact ends, one ulp outside them, midpoints and the points between intervals
        probes = [0.0, 1.0, math.inf, *lo2, *hi2, *np.nextafter(lo2, 0.0),
                  *np.nextafter(hi2, math.inf), *((lo2 + hi2) / 2), *((hi2[:-1] + lo2[1:]) / 2)]
        for d2 in map(float, probes):
            assert iv.smallest_label(d2) == oracle_label(d2, t, alpha), d2


def _label_hits_reference(d2, lo2, hi2):
    """The smallest-label rule with an all-true mask of the unlabelled
    squared distances, updated after every interval: the reference (l, hit)
    sequence, and the point where it stops, for geometry._label_hits."""
    remaining = np.ones(d2.shape, dtype=bool)
    for l in range(len(lo2)):
        hit = remaining & (d2 >= lo2[l]) & (d2 <= hi2[l])
        yield l, hit
        remaining &= ~hit
        if not remaining.any():
            return


@st.composite
def label_kernel_inputs(draw):
    """(d2, t, alpha, l0, l1): a family, one slice [l0, l1) of it as the
    image pass takes, and squared distances on every squared end of the
    family, one ulp either side, between, NaN, 0 and inf, in an array of
    one to three dimensions."""
    t, alpha = draw(st.sampled_from([
        ([3.0], 1.0), ([1.0], 1e-12), ([3.0, 4.0], 1.5), ([2.0, 3.0, 5.0, 6.0], 1.0),
        ([1.0, 3.0, 10000.0], 0.1), ([1e9, 1e9 + 1.0], 3.0), ([3.0, 13.0, 45.0, 150.0, 500.0], 1.0),
    ]) | st.tuples(
        st.lists(st.floats(1.0, 60.0), min_size=1, max_size=6, unique=True).map(sorted),
        st.sampled_from([1e-12, 0.3, 1.0, 8.0, 50.0])))
    l0 = draw(st.integers(0, len(t) - 1))
    l1 = draw(st.integers(l0 + 1, len(t)))
    lo2, hi2 = IntervalFamily(t, alpha).sq_bounds
    ends = np.concatenate((lo2, hi2))
    probe = st.sampled_from(sorted({*ends.tolist(), *np.nextafter(ends, 0.0).tolist(),
                                    *np.nextafter(ends, math.inf).tolist(), 0.0, math.inf}))
    value = probe | st.just(math.nan) | st.floats(0.0, float(hi2[-1]) * 1.5)
    shape = draw(st.sampled_from([(1,), (2,), (7,), (3, 4), (2, 1, 5)]))
    d2 = np.array(draw(st.lists(value, min_size=math.prod(shape), max_size=math.prod(shape))))
    return d2.reshape(shape), t, alpha, l0, l1


class TestLabelHits:
    @given(data=label_kernel_inputs())
    @settings(max_examples=400, deadline=None)
    # Everything hits the first interval: one step, and no mask is needed.
    @example(data=(np.array([9.0, 16.0]), [3.0, 4.0], 1.5, 0, 2))
    # Nothing hits: the sequence runs through the last interval.
    @example(data=(np.array([math.nan, 0.0, math.inf]), [3.0, 4.0, 5.0], 1.0, 0, 3))
    # The last pair left hits the second of three: the sequence stops there.
    @example(data=(np.array([9.0, 25.0]), [3.0, 5.0, 7.0], 1.0, 0, 3))
    # alpha = 1e-12: only the exact ends of [1, 1 + 1e-12] squared hit.
    @example(data=(np.array([1.0, float(np.nextafter(1.0, 0.0)), (1.0 + 1e-12) ** 2]), [1.0], 1e-12,
                   0, 1))
    def test_matches_the_reference_and_the_oracle(self, data):
        d2, t, alpha, l0, l1 = data
        lo2, hi2 = (b[l0:l1] for b in IntervalFamily(t, alpha).sq_bounds)
        got = [(l, hit.copy()) for l, hit in geometry._label_hits(d2, lo2, hi2)]
        want = [(l, hit.copy()) for l, hit in _label_hits_reference(d2, lo2, hi2)]
        assert [l for l, _ in got] == [l for l, _ in want]
        for (_, hit), (_, ref) in zip(got, want):
            assert hit.dtype == bool and hit.shape == d2.shape
            assert np.array_equal(hit, ref)
        label = np.full(d2.shape, -1)
        for l, hit in got:
            assert not (hit & (label >= 0)).any(), "a squared distance hits twice"
            label[hit] = l
        oracle = [oracle_label(v, t[l0:l1], alpha) for v in d2.ravel().tolist()]
        assert label.ravel().tolist() == [-1 if l is None else l - 1 for l in oracle]


class TestMinPairwiseDistance:
    def test_single_point(self):
        dist, separated = min_pairwise_distance(PointSet([(0, 0)]))
        assert dist == math.inf and separated

    def test_close_pair(self):
        dist, separated = min_pairwise_distance(PointSet([(0, 0), (0.5, 0)]))
        assert dist == 0.5 and not separated

    def test_grid(self):
        dist, separated = min_pairwise_distance(PointSet(GRID))
        assert dist == oracle_min_distance(GRID) == 1.0
        assert separated

    def test_exact_unit_distance_is_separated(self):
        _, separated = min_pairwise_distance(PointSet([(0, 0), (1, 0)]))
        assert separated


class TestDiameter:
    def test_single_point(self):
        assert diameter(PointSet([(7, -3)])) == 0.0

    def test_grid(self):
        assert diameter(PointSet(GRID)) == oracle_diameter(GRID) == 2 * math.sqrt(2)

    def test_two_column(self):
        ps = two_column(20, 2, 500, 0.1).ps
        assert diameter(ps) == math.sqrt(500**2 + 81)


def _circle(n):
    angles = [2 * math.pi * k / n for k in range(n)]
    return [(1e3 * math.cos(a), 1e3 * math.sin(a)) for a in angles]


def _cluster_and_outlier():
    rng = np.random.default_rng(5)
    return [tuple(p) for p in rng.random((300, 2)) * 1e-6] + [(1e6, -1e6)]


def _uniform_disk(n, radius):
    rng = np.random.default_rng(11)
    r = radius * np.sqrt(rng.random(n))
    a = rng.random(n) * (2 * math.pi)
    return list(zip((r * np.cos(a)).tolist(), (r * np.sin(a)).tolist()))


def _far_blobs(m, gap):
    rng = np.random.default_rng(12)
    blobs = rng.normal(0.0, 30.0, (2 * m, 2))
    blobs[m:] += (gap, gap / 3)
    return [tuple(p) for p in blobs.tolist()]


def _rotated_jittered_grid(side, angle):
    rng = np.random.default_rng(13)
    g = np.stack(np.meshgrid(np.arange(side), np.arange(side)), axis=-1).reshape(-1, 2) * 3.0
    g += rng.uniform(-1.0, 1.0, g.shape)
    c, s = math.cos(angle), math.sin(angle)
    return [(x * c - y * s, x * s + y * c) for x, y in g.tolist()]


def _rotated_columns(m, gap, angle):
    c, s = math.cos(angle), math.sin(angle)
    return [(k * c + off * s, k * s - off * c) for off in (0.0, gap) for k in range(m)]


CORNER = 2.0**510
EXACT_CASES = {
    "circle-2000": _circle(2000),
    "collinear-column": [(5.0, float(y)) for y in range(300)],
    "uncertain-diagonal": [(float(i), 0.5 * i) for i in range(300)],
    "duplicates": GRID * 3 + [(0.5, 0.5)] * 4,
    "lattice-at-1e9": [(1e9 + x, 1e9 - y) for x in range(15) for y in range(15)],
    "corners-2**510": [(sx * CORNER, sy * CORNER) for sx in (-1, 0, 1) for sy in (-1, 1)],
    "cluster-and-outlier": _cluster_and_outlier(),
    "interleaved-rows": [(float(i // 2), (i % 2) * 1e6) for i in range(800)],
    "rotated-columns": _rotated_columns(200, 500.0, 0.3),
    # The last two points are midpoints of hull edges, so not hull vertices, yet
    # their computed d2 rounds above every pair of corners.
    "edge-midpoints": [
        (-102413.0, 368432.0), (-102377.0, 368414.0), (49329315394.0, 98659204091.0),
        (49329315466.0, 98659204055.0), (-102395.0, 368423.0), (49329315430.0, 98659204073.0),
    ],
    "uniform-disk": _uniform_disk(2000, 1e3),
    "far-gaussian-blobs": _far_blobs(800, 1e5),
    "rotated-jittered-grid": _rotated_jittered_grid(40, 0.7),
    # A squared minimum of 1e-320 at x = 2**500: x / side stays finite only
    # because cell sides are held at 2**-510 or more.
    "tiny-gap-far-out": [(2.0**500, 0.0), (2.0**500, 1e-160), (2.0**500, 3e-160)],
}


@st.composite
def hard_point_sets(draw):
    """Small-integer lattices with ties and collinear runs, scaled, shifted and nudged."""
    small = st.integers(-4, 4)
    base = draw(st.lists(st.tuples(small, small), min_size=1, max_size=30))
    for x, y, dx, dy, m in draw(st.lists(st.tuples(small, small, small, small, st.integers(2, 8)),
                                         max_size=2)):
        base += [(x + k * dx, y + k * dy) for k in range(m)]
    # clipping to [-4, 4] keeps multiples of 2**508 within the 2**510 limit
    scale = draw(st.sampled_from([1.0, 0.5, 3.0, 2.0**508, 2.0**-530]))
    shift = draw(st.sampled_from([0.0, 1e9, -1e9 + 0.25]))
    points = [(max(-4, min(4, x)) * scale + shift, max(-4, min(4, y)) * scale + shift)
              for x, y in base]
    for i, axis in draw(st.lists(st.tuples(st.integers(0, len(points) - 1), st.sampled_from("xyb")),
                                 max_size=4)):
        x, y = points[i]
        # one step towards zero, so 2**510 stays in range and 0 stays a duplicate
        points.append((math.nextafter(x, 0.0) if axis in "xb" else x,
                       math.nextafter(y, 0.0) if axis in "yb" else y))
    return points


def _reference_cell_pairs(points, side):
    """Pairs (p, q), p < q, whose grid cells, anchored at multiples of the
    side, are equal or adjacent, in pure Python."""
    cells = {}
    for p, (x, y) in enumerate(points):
        cells.setdefault((math.floor(x / side), math.floor(y / side)), []).append(p)
    return sorted(
        (p, q)
        for (cx, cy), members in cells.items()
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for p in members
        for q in cells.get((cx + dx, cy + dy), ())
        if p < q
    )


def _joined_pairs(points, side):
    """The pairs of _touching_runs, each as (min, max), with repeats kept."""
    xs, ys = np.array(points, dtype=np.float64).reshape(-1, 2).T
    return sorted(
        (min(p, q), max(p, q))
        for i, j in _run_pairs(*_touching_runs(xs, ys, side))
        for p, q in zip(i.tolist(), j.tolist())
    )


def _brute_codes(points, t):
    """The pairs of count_pairs(method="brute") under the family t, taken from
    its one run set (each point with every later one), each coded
    min * n + max, sorted, with repeats kept."""
    n = len(points)
    codes = [np.zeros(0, dtype=np.int64)]

    def record(order, first, lo, length, runs=counting._run_pairs):
        pos = np.arange(n - 1)
        assert [v.tolist() for v in (order, first, lo, length)] == [
            list(range(n)), pos.tolist(), (pos + 1).tolist(), (n - 1 - pos).tolist()]
        for i, j in runs(order, first, lo, length):
            codes.append(np.minimum(i, j) * n + np.maximum(i, j))
            yield i, j

    with mock.patch.object(counting, "_run_pairs", record):
        count_pairs(PointSet(points), IntervalFamily(t, 1.0), "brute")
    return np.sort(np.concatenate(codes))


# Brute walks every pair whatever the family: t = 1, and t = 2**400, beyond
# the extent of every set whose coordinates are not near the 2**510 limit.
BRUTE_FAMILIES = ([1.0], [2.0**400])


def _all_index_codes(n):
    """Every index pair p < q, coded p * n + q, sorted."""
    p, q = np.triu_indices(n, 1)
    return p * n + q


class TestTouchingJoin:
    """The cell join on the touching rows against a pure-Python cell
    reference, and the brute count's run set against all index pairs."""

    @pytest.mark.parametrize("points", EXACT_CASES.values(), ids=EXACT_CASES.keys())
    def test_regression_sets(self, points):
        xs, ys = zip(*points)
        extent = max(max(xs) - min(xs), max(ys) - min(ys), geometry._MIN_EXTENT)
        # min_pairwise_distance's side rule at the minimum, held at its floor for the cluster
        r = min_pairwise_distance(PointSet(points))[0] * (1 + 2.0**-50)
        side = math.ldexp(1.0, math.frexp(max(r, extent / _MAX_CELLS))[1])
        assert _joined_pairs(points, side) == _reference_cell_pairs(points, side)
        for t in BRUTE_FAMILIES:
            assert np.array_equal(_brute_codes(points, t), _all_index_codes(len(points)))

    @given(points=hard_point_sets(), cells=st.sampled_from([0.5, 1.0, 3.0, 8.0, 64.0, 2.0**30]))
    @example(points=[(0.0, 0.0)], cells=1.0)
    @settings(max_examples=300, deadline=None)
    def test_each_touching_pair_once(self, points, cells):
        xs, ys = zip(*points)
        extent = max(max(xs) - min(xs), max(ys) - min(ys))
        side = extent / cells if extent > 0 else 1.0
        assert _joined_pairs(points, side) == _reference_cell_pairs(points, side)
        for t in BRUTE_FAMILIES:
            assert np.array_equal(_brute_codes(points, t), _all_index_codes(len(points)))


@st.composite
def cell_bound_sets(draw):
    """hard_point_sets plus points on cell bounds: small multiples of powers
    of two, shifted by 0 or +-1e9, and the subnormals +-5e-324 next to 0."""
    bound = st.builds(lambda m, j, shift: m * 2.0**j + shift, st.integers(-4, 4),
                      st.integers(-30, 30), st.sampled_from([0.0, 1e9, -1e9]))
    coordinate = bound | st.sampled_from([5e-324, -5e-324, 0.0])
    return draw(hard_point_sets()) + draw(st.lists(st.tuples(coordinate, coordinate), max_size=8))


def _image_sides(points):
    """Every side the pruned count's image pass may be priced at (the
    tree's level sides), coarsest first, down to the closest-pair grid's
    floor."""
    coords = np.array(points)
    extent = max(float(np.ptp(coords[:, 0])), float(np.ptp(coords[:, 1])), geometry._MIN_EXTENT)
    side = math.ldexp(1.0, math.frexp(extent)[1] + 1)
    sides = []
    while side >= extent / _MAX_CELLS:
        sides.append(side)
        side /= 2
    return sides


class TestExactCells:
    """Every pair's computed dx*dx + dy*dy lies in counting._sq_bracket of
    its two cells' offset, with no slack, on the power-of-two sides of the
    image pass and of the closest-pair search."""

    @staticmethod
    def _sides(points):
        """Every side the image pass may be priced at, and the sides
        min_pairwise_distance takes, each checked to be a power of two."""
        taken = []

        def record(xs, ys, side, bucket=geometry._bucket_cells):
            taken.append(side)
            return bucket(xs, ys, side)

        with mock.patch.object(geometry, "_bucket_cells", record):
            min_pairwise_distance(PointSet(points))
        assert all(math.frexp(side)[0] == 0.5 for side in taken)
        return _image_sides(points) + taken

    @given(points=cell_bound_sets())
    @example(points=[(-5e-324, 0.0), (0.0, 5e-324), (2.0, -2.0), (-4.0, 5e-324)])
    @example(points=[(1e9, -1e9), (1e9 + 0.5, -1e9 - 0.5), (1e9 - 2.0**-30, -1e9)])
    @settings(max_examples=200, deadline=None)
    def test_pairs_lie_in_their_offset_bracket(self, points):
        xs, ys = np.array(points).T
        p, q = np.triu_indices(len(points), 1)
        d2 = geometry._sq_dists(xs, ys, p, q)
        for side in self._sides(points):
            grid = geometry._bucket_cells(xs, ys, side)
            key = np.empty(len(points), dtype=np.int64)
            key[grid.order] = grid.keys[grid.cell_of]
            ix, iy = np.divmod(key, grid.stride)
            # Each point lies in its cell, anchored at a multiple of the side,
            # unless x / side underflows.
            for v, cell in ((xs, ix), (ys, iy)):
                anchor = math.floor(v.min() / side)
                assert all(math.floor(x / side) == anchor + c
                           for x, c in zip(v.tolist(), cell.tolist()) if abs(x) >= 2.0**-1022 * side)
            low, high = counting._sq_bracket(np.abs(ix[p] - ix[q]), np.abs(iy[p] - iy[q]), side)
            assert np.all(low <= d2) and np.all(d2 <= high), side


class TestTreeCells:
    """counting._Tree, the pruned count's quadtree, on points at cell bounds:
    its finest cells are the floor cells of side top / 2**31, each index in
    [0, 2**31), and every level's nodes are the runs of the sorted points
    that share a cell of that level, with their actual extremes."""

    @staticmethod
    def _tree(points):
        coords = np.array(points, dtype=np.float64)
        return coords, counting._Tree(coords)

    @staticmethod
    def _index(key, axis):
        """The finest cell index on the axis, read back from the Morton key."""
        v = key >> (1 - axis)
        return sum(((v >> (2 * b)) & 1) << b for b in range(31))

    @given(points=cell_bound_sets())
    @example(points=[(-5e-324, 0.0), (-0.5, 0.0), (2.0**29, 0.0)])
    @example(points=[(1e9, -1e9), (1e9 + 0.5, -1e9 - 0.5), (1e9 - 2.0**-30, -1e9)])
    @settings(max_examples=200, deadline=None)
    def test_finest_indices_are_the_floor_cells(self, points):
        coords, tree = self._tree(points)
        assert np.array_equal(np.sort(tree.order), np.arange(len(coords)))
        assert np.array_equal(tree.pts, coords[tree.order])
        assert np.all(np.diff(tree.key) >= 0)
        fine = math.ldexp(tree.top, -31)
        for axis in (0, 1):
            index = self._index(tree.key, axis)
            cell = np.floor(tree.pts[:, axis] / fine)
            # The key holds 31 bits an axis: an index that did not fit would
            # lose bits here, and its difference from the others would move.
            # The cells' differences are exact floats, below 2**31.
            assert np.all((0 <= index) & (index < 2**31)) and index.min() < 2**30
            assert np.array_equal(index - index[0], cell - cell[0])
        assert len(tree.level(0)[0]) == 2

    @given(points=cell_bound_sets())
    @example(points=[(-5e-324, 0.0), (0.0, 5e-324), (2.0, -2.0), (-4.0, 5e-324)])
    @settings(max_examples=100, deadline=None)
    def test_levels_nest_and_bound_their_points(self, points):
        coords, tree = self._tree(points)
        index = [self._index(tree.key, axis) for axis in (0, 1)]
        coarser = None
        for level in range(32):
            bounds, ext = tree.level(level)
            assert bounds[0] == 0 and bounds[-1] == len(coords) and np.all(np.diff(bounds) > 0)
            cells = np.stack([i >> (31 - level) for i in index], axis=1)
            starts = np.flatnonzero(np.any(np.diff(cells, axis=0, prepend=-1) != 0, axis=1))
            assert np.array_equal(bounds[:-1], starts), level
            if coarser is not None:
                assert np.all(np.isin(coarser, bounds)), level
            coarser = bounds
            side = math.ldexp(tree.top, -level)
            for c, (s, e) in enumerate(zip(bounds, bounds[1:])):
                pts = tree.pts[s:e]
                assert np.array_equal(ext[c], np.concatenate((pts.min(axis=0), -pts.max(axis=0))))
                assert np.all(pts.max(axis=0) - pts.min(axis=0) <= side), (level, c)


class TestExactAgainstOracle:
    @pytest.mark.parametrize("points", EXACT_CASES.values(), ids=EXACT_CASES.keys())
    def test_regression_sets(self, points):
        ps = PointSet(points)
        assert min_pairwise_distance(ps)[0] == oracle_min_distance(points)
        assert diameter(ps) == oracle_diameter(points)

    def test_cluster_raises_cell_side_to_floor(self):
        xs, ys = zip(*EXACT_CASES["cluster-and-outlier"])
        extent = max(max(xs) - min(xs), max(ys) - min(ys))
        assert 2 * oracle_min_distance(EXACT_CASES["cluster-and-outlier"]) < extent / _MAX_CELLS

    def test_interleaved_rows_halve_the_radius(self):
        xs, ys = np.array(sorted(EXACT_CASES["interleaved-rows"])).T
        # neighbours in (x, y) order are 1e6 apart, so the first grid, of side
        # 2**20, is one cell
        assert _touching_runs(xs, ys, 2.0**20)[3].sum() > _PAIR_BUDGET * len(xs)

    @given(points=hard_point_sets())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_oracle(self, points):
        ps = PointSet(points)
        assert min_pairwise_distance(ps)[0] == oracle_min_distance(points)
        assert diameter(ps) == oracle_diameter(points)

    def test_diameter_evaluates_few_pairs_on_a_circle(self):
        # Every point of a circle is extreme and has an antipode within a hair
        # of the diameter, yet the walk evaluates only the pairs of the node
        # pairs whose bracket reaches beyond the sweeps' lower bound: well
        # under a quarter of all pairs. Every pair the walk evaluates, a tree
        # leaf's or an image slot pair, goes through counting._label_hits.
        points = EXACT_CASES["circle-2000"]
        evaluated = []

        def label_hits(d2, lo2, hi2, real=geometry._label_hits):
            evaluated.append(d2.size)
            return real(d2, lo2, hi2)

        with mock.patch.object(counting, "_label_hits", label_hits):
            assert diameter(PointSet(points)) == oracle_diameter(points)
        assert 0 < sum(evaluated) < len(points) ** 2 / 4


def _forced_walk(forced):
    """The pair walk as picked (None), forced onto the tree ("tree"), or
    forced onto the image at the tree's cell side of the given level."""
    if forced is None:
        return contextlib.nullcontext()
    if forced == "tree":
        return mock.patch.object(counting, "_image_pick", lambda *args: None)
    return mock.patch.object(counting, "_visit_hits", forced_image(lambda coords: level_side(coords, forced)))


class TestDiameterOnBothPasses:
    """diameter with the pair walk forced onto either pass (the walk as
    picked is TestExactAgainstOracle's). The walk visits the pairs above the
    sweeps' bound D as those of the one interval [nextafter(D, inf), inf],
    whose infinite upper end meets every offset's bracket in
    counting._offsets and, near the 2**510 limit, the overflow of
    counting._sq_bracket."""

    @pytest.mark.parametrize("forced", ["tree", 0, 2])
    @pytest.mark.parametrize("points", EXACT_CASES.values(), ids=EXACT_CASES.keys())
    def test_regression_sets(self, points, forced):
        with _forced_walk(forced):
            assert diameter(PointSet(points)) == oracle_diameter(points)

    @given(points=cell_bound_sets(), forced=st.none() | st.just("tree") | st.integers(-1, 5))
    @example(points=EXACT_CASES["corners-2**510"], forced="tree")
    @example(points=EXACT_CASES["corners-2**510"], forced=-1)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_oracle(self, points, forced):
        with _forced_walk(forced):
            assert diameter(PointSet(points)) == oracle_diameter(points)

    @pytest.mark.parametrize("level", [-1, 0, 1])
    def test_corners_overflow_the_offset_bracket(self, level):
        points = EXACT_CASES["corners-2**510"]
        overflows = []

        def sq_bracket(da, db, side, real=counting._sq_bracket):
            low, high = real(da, db, side)
            overflows.append(bool(np.isinf(high).any()))
            return low, high

        with _forced_walk(level), mock.patch.object(counting, "_sq_bracket", sq_bracket):
            assert diameter(PointSet(points)) == oracle_diameter(points) == math.sqrt(2.0**1023)
        assert any(overflows)


class TestCheckHypothesis:
    def test_single_interval_vacuous(self):
        report = check_hypothesis(IntervalFamily([42.0], 1.0), 0.5)
        assert report.holds and report.violations == ()

    def test_spread_values_hold(self):
        report = check_hypothesis(IntervalFamily([1.0, 3.0, 9.0], 0.1), 0.1)
        assert report.holds
        # triple (1, 1, 2): window [0.9 * 2, 2.2] misses t_2 = 3
        assert oracle_violations([1.0, 3.0, 9.0], 0.1, 0.1) == []

    def test_arithmetic_values_violate(self):
        report = check_hypothesis(IntervalFamily([10.0, 20.0, 30.0], 1.0), 0.1)
        assert not report.holds
        triples = [(v.l1, v.l2, v.l3) for v in report.violations]
        assert triples == oracle_violations([10.0, 20.0, 30.0], 1.0, 0.1)
        assert (1, 1, 2) in triples and (1, 2, 3) in triples
        by_triple = {(v.l1, v.l2, v.l3): v for v in report.violations}
        assert by_triple[(1, 1, 2)].forbidden_low == pytest.approx(18.0)
        assert by_triple[(1, 1, 2)].forbidden_high == 22.0
        assert by_triple[(1, 2, 3)].forbidden_low == pytest.approx(27.0)
        assert by_triple[(1, 2, 3)].forbidden_high == 32.0

    def test_window_endpoints_are_closed(self):
        # t_3 exactly equals t_1 + t_2 + 2 * alpha
        report = check_hypothesis(IntervalFamily([10.0, 20.0, 32.0], 1.0), 0.1)
        assert any((v.l1, v.l2, v.l3) == (1, 2, 3) for v in report.violations)

    def test_delta_out_of_range(self):
        iv = IntervalFamily([1.0, 5.0], 1.0)
        for delta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                check_hypothesis(iv, delta)

    @given(
        steps=st.lists(st.floats(1.0, 50.0), min_size=2, max_size=5),
        alpha=st.sampled_from([0.1, 1.0]),
        delta=st.floats(0.02, 0.98),
        shrink=st.floats(0.01, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_delta(self, steps, alpha, delta, shrink):
        values = []
        acc = 1.0
        for s in steps:
            values.append(acc)
            acc += s
        iv = IntervalFamily(values, alpha)
        if check_hypothesis(iv, delta).holds:
            assert check_hypothesis(iv, delta * shrink).holds


class TestVerifyBound:
    def test_two_column_within(self):
        built = two_column(20, 2, 500, 0.1)
        report = verify_bound(built.ps, built.iv, delta=0.2, C=2)
        assert report.separated
        assert report.hypothesis.holds
        assert report.count.total == 118
        assert report.bound_value == 140.0
        assert report.within_bound
        assert report.diameter == math.sqrt(500**2 + 81)

    def test_two_points_at_t1(self):
        ps = PointSet([(0, 0), (5, 0)])
        report = verify_bound(ps, IntervalFamily([5.0], 1.0), delta=0.5, C=0)
        assert report.count.total == 1
        assert report.bound_value == 1.0
        assert report.within_bound

    def test_three_column_exceeds(self):
        built = three_column(30, 2000, 2000)
        report = verify_bound(built.ps, built.iv, delta=0.2, C=2)
        assert not report.hypothesis.holds
        assert report.count.total == 300
        assert report.bound_value == 285.0
        assert not report.within_bound

    def test_negative_constant_rejected(self):
        ps = PointSet([(0, 0), (5, 0)])
        with pytest.raises(ValueError):
            verify_bound(ps, IntervalFamily([5.0], 1.0), delta=0.5, C=-1)

    def test_report_serializes(self):
        built = two_column(8, 1, 50, 0.5)
        report = verify_bound(built.ps, built.iv, delta=0.2, C=1)
        d = asdict(report)
        assert set(d) == {
            "separated",
            "min_distance",
            "hypothesis",
            "count",
            "bound_constant",
            "bound_value",
            "within_bound",
            "diameter",
        }
        assert d["count"]["total"] == 16


class TestRigidMotionInvariance:
    @pytest.mark.parametrize("angle", [0.3, 1.2, 2.9])
    def test_count_and_diameter_invariant(self, angle):
        from neardist import random_separated

        ps = random_separated(60, 20.0, seed=11)
        iv = IntervalFamily([1.3, 4.7], 0.5)
        # precondition of the exactness claim: no distance near an endpoint
        lo2, hi2 = iv.sq_bounds
        coords = ps.coords
        diffs = coords[:, None, :] - coords[None, :, :]
        d = np.sqrt((diffs**2).sum(-1))
        edges = np.concatenate([np.sqrt(lo2), np.sqrt(hi2)])
        margin = np.abs(d[:, :, None] - edges[None, None, :]).min()
        assert margin > 1e-6

        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        moved = PointSet(coords @ rot.T + np.array([13.7, -8.1]))

        base = count_pairs(ps, iv, "brute")
        turned = count_pairs(moved, iv, "brute")
        assert (base.total, base.per_interval) == (turned.total, turned.per_interval)
        assert diameter(moved) == pytest.approx(diameter(ps), abs=1e-9)
        assert min_pairwise_distance(moved)[0] == pytest.approx(
            min_pairwise_distance(ps)[0], abs=1e-9
        )
