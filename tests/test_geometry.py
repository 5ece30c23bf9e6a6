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
    """Pairs (p, q), p < q, whose grid cells are equal or adjacent, in pure Python."""
    x0 = min(x for x, _ in points)
    y0 = min(y for _, y in points)
    cells = {}
    for p, (x, y) in enumerate(points):
        cells.setdefault((math.floor((x - x0) / side), math.floor((y - y0) / side)), []).append(p)
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
    its walk (_candidate_pairs on the one-cell grid), each coded min * n + max,
    sorted, with repeats kept."""
    n = len(points)
    codes = [np.zeros(0, dtype=np.int64)]

    def record(grid, rows, *args, walk=counting._candidate_pairs):
        assert grid.side == math.inf and [r.tolist() for r in rows] == [[0]] * 3
        for i, j in walk(grid, rows, *args):
            codes.append(np.minimum(i, j) * n + np.maximum(i, j))
            yield i, j

    with mock.patch.object(counting, "_candidate_pairs", record):
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
    """The shared cell join on the touching rows against a pure-Python cell
    reference, and the brute count's walk, the one-cell grid with the row
    (0, 0, 0), against all index pairs."""

    @pytest.mark.parametrize("points", EXACT_CASES.values(), ids=EXACT_CASES.keys())
    def test_regression_sets(self, points):
        xs, ys = zip(*points)
        extent = max(max(xs) - min(xs), max(ys) - min(ys))
        # the first grid of min_pairwise_distance, held at its floor for the cluster
        side = max(2 * min_pairwise_distance(PointSet(points))[0], extent / _MAX_CELLS)
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
        # neighbours in (x, y) order are 1e6 apart, so the first grid is one cell
        assert _touching_runs(xs, ys, 2e6)[3].sum() > _PAIR_BUDGET * len(xs)

    @given(points=hard_point_sets())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_oracle(self, points):
        ps = PointSet(points)
        assert min_pairwise_distance(ps)[0] == oracle_min_distance(points)
        assert diameter(ps) == oracle_diameter(points)

    def test_diameter_evaluates_few_pairs_on_a_circle(self, monkeypatch):
        # Every point of a circle is extreme and has an antipode within a hair
        # of the diameter, yet only the cell pairs whose bracket reaches beyond
        # the sweeps' lower bound are evaluated: well under a quarter of all pairs.
        points = EXACT_CASES["circle-2000"]
        evaluated = []

        def counted(xs, ys, i, j):
            evaluated.append(np.broadcast(i, j).size)
            return sq_dists(xs, ys, i, j)

        sq_dists = geometry._sq_dists
        monkeypatch.setattr(geometry, "_sq_dists", counted)
        assert diameter(PointSet(points)) == oracle_diameter(points)
        assert sum(evaluated) < len(points) ** 2 / 4


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
