import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily,
    Point,
    PointSet,
    check_hypothesis,
    count_pairs,
    diameter,
    min_pairwise_distance,
    three_column,
    two_column,
    verify_bound,
)

from _oracles import oracle_diameter, oracle_min_distance, oracle_violations

GRID = [(float(x), float(y)) for x in range(3) for y in range(3)]


class TestTypes:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0.0)

    def test_point_set_rejects_empty(self):
        with pytest.raises(ValueError):
            PointSet([])

    def test_point_set_rejects_inf(self):
        with pytest.raises(ValueError):
            PointSet([(0.0, float("inf"))])

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
        d = report.to_dict()
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
