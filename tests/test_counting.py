import math
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily,
    PointSet,
    count_pairs,
    label_pairs,
    random_separated,
    two_column,
)

from _oracles import oracle_count, oracle_labels

GRID = [(float(x), float(y)) for x in range(3) for y in range(3)]


class TestCountExamples:
    def test_grid_unit_interval(self):
        ps = PointSet(GRID)
        iv = IntervalFamily([1.0], 1.0)
        expected = oracle_count(GRID, [1.0], 1.0)
        assert expected == (26, [26])
        for method in ("brute", "pruned"):
            report = count_pairs(ps, iv, method)
            assert report.total == 26
            assert report.per_interval == (26,)
            assert report.method == method

    def test_single_pair_inside_interval(self):
        iv = IntervalFamily([3.0], 1.0)
        ps = PointSet([(0.0, 0.0), (3.5, 0.0)])
        assert count_pairs(ps, iv).total == 1

    def test_two_column_example(self):
        built = two_column(20, 2, 500, 0.1)
        pts = [tuple(p) for p in built.ps.coords]
        expected = oracle_count(pts, list(built.iv.t), built.iv.alpha)
        assert expected == (118, [18, 100])
        for method in ("brute", "pruned"):
            report = count_pairs(built.ps, built.iv, method)
            assert report.total == 118
            assert report.per_interval == (18, 100)

    def test_single_point_counts_nothing(self):
        report = count_pairs(PointSet([(2, 2)]), IntervalFamily([1.0], 1.0), "pruned")
        assert report.total == 0 and report.per_interval == (0,)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            count_pairs(PointSet(GRID), IntervalFamily([1.0], 1.0), "fast")


class TestClosedEndpoints:
    def test_exact_left_endpoint_counts(self):
        ps = PointSet([(0.0, 0.0), (2.0, 0.0)])
        iv = IntervalFamily([2.0], 0.5)
        assert count_pairs(ps, iv, "brute").total == 1
        assert count_pairs(ps, iv, "pruned").total == 1

    def test_exact_right_endpoint_counts(self):
        ps = PointSet([(0.0, 0.0), (0.0, 2.5)])
        iv = IntervalFamily([2.0], 0.5)
        assert count_pairs(ps, iv, "brute").total == 1
        assert count_pairs(ps, iv, "pruned").total == 1

    def test_pythagorean_exact_hit(self):
        # 3-4-5 triangle: squared distance 25 equals the squared left bound
        ps = PointSet([(0.0, 0.0), (3.0, 4.0)])
        iv = IntervalFamily([5.0], 1.0)
        assert count_pairs(ps, iv, "pruned").total == 1

    def test_just_outside_endpoints(self):
        iv = IntervalFamily([2.0], 0.5)
        below = PointSet([(0.0, 0.0), (1.999999, 0.0)])
        above = PointSet([(0.0, 0.0), (2.500001, 0.0)])
        assert count_pairs(below, iv).total == 0
        assert count_pairs(above, iv).total == 0


class TestLabelPairs:
    def test_overlapping_intervals_smallest_wins(self):
        iv = IntervalFamily([1.0, 1.5], 1.0)
        ps = PointSet([(0.0, 0.0), (1.6, 0.0)])
        assert list(label_pairs(ps, iv)) == [(0, 1, 1)]

    def test_gap_distance_absent(self):
        iv = IntervalFamily([1.0, 5.0], 1.0)
        ps = PointSet([(0.0, 0.0), (3.0, 0.0)])
        assert list(label_pairs(ps, iv)) == []

    def test_grid_labels(self):
        iv = IntervalFamily([1.0, 2.0], 0.3)
        got = list(label_pairs(PointSet(GRID), iv))
        assert got == oracle_labels(GRID, [1.0, 2.0], 0.3)
        by_label = {}
        for i, j, l in got:
            by_label.setdefault(l, []).append((i, j))
        # unit distances take label 1, axis distance 2 takes label 2, and
        # sqrt(2) appears under no label
        assert len(by_label[1]) == 12
        dists = {
            round(math.dist(GRID[i], GRID[j]), 6) for i, j in by_label[2]
        }
        assert 2.0 in dists and 1.414214 not in dists
        assert sum(1 for i, j in by_label[2] if math.dist(GRID[i], GRID[j]) == 2.0) == 6

    def test_sorted_by_pair(self):
        built = two_column(10, 1, 100, 0.5)
        got = list(label_pairs(built.ps, built.iv))
        assert got == sorted(got)
        assert len(got) == built.predicted_count


class TestLabelConsistency:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_labels_match_counts(self, seed):
        ps = random_separated(40, 14.0, seed)
        iv = IntervalFamily([1.0, 2.5, 6.0], 0.7)
        labels = label_pairs(ps, iv)
        report = count_pairs(ps, iv, "brute")
        assert len(labels) == report.total
        per = [0] * iv.k
        for _, _, l in labels:
            per[l - 1] += 1
        assert tuple(per) == report.per_interval
        lo2, hi2 = iv.sq_bounds
        coords = ps.coords
        for i, j, l in labels:
            d2 = float(
                (coords[i, 0] - coords[j, 0]) ** 2 + (coords[i, 1] - coords[j, 1]) ** 2
            )
            assert lo2[l - 1] <= d2 <= hi2[l - 1]
            for smaller in range(l - 1):
                assert not (lo2[smaller] <= d2 <= hi2[smaller])


@st.composite
def interval_families(draw):
    k = draw(st.integers(1, 5))
    alpha = draw(st.sampled_from([0.1, 1.0]))
    values = []
    acc = draw(st.floats(1.0, 4.0))
    for _ in range(k):
        values.append(acc)
        acc = acc * draw(st.floats(1.02, 2.5)) + draw(st.floats(0.05, 3.0))
    return IntervalFamily(values, alpha)


class TestMethodEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 220),
        iv=interval_families(),
        spread=st.floats(1.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_brute_equals_pruned(self, seed, n, iv, spread):
        ps = random_separated(n, 2.0 * math.sqrt(n) * spread, seed)
        brute = count_pairs(ps, iv, "brute")
        pruned = count_pairs(ps, iv, "pruned")
        assert brute.total == pruned.total
        assert brute.per_interval == pruned.per_interval

    def test_equivalence_on_huge_t_columns(self):
        built = two_column(40, 3, 4000, 0.2)
        brute = count_pairs(built.ps, built.iv, "brute")
        pruned = count_pairs(built.ps, built.iv, "pruned")
        assert brute.per_interval == pruned.per_interval
        assert brute.total == built.predicted_count

    @given(
        pts=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=2, max_size=12),
        qs=st.lists(st.integers(1, 15), min_size=1, max_size=4, unique=True),
        alpha=st.sampled_from([1.0, 2.0**505, 2.0**507]),
    )
    @example(pts=[(-4, -4), (4, 4), (-4, 4), (4, -4), (0, 0), (4, 0)], qs=[4, 8, 15], alpha=2.0**507)
    @settings(max_examples=60, deadline=None)
    def test_brute_pruned_oracle_agree_at_magnitude_limit(self, pts, qs, alpha):
        # Multiples of 2**508 reach the 2**510 coordinate limit and land on
        # interval endpoints exactly; overflow would warn or miscount.
        pts = [(x * 2.0**508, y * 2.0**508) for x, y in pts]
        t = sorted(q * 2.0**507 for q in qs)
        expected = oracle_count(pts, t, alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for method in ("brute", "pruned"):
                report = count_pairs(PointSet(pts), IntervalFamily(t, alpha), method)
                assert (report.total, list(report.per_interval)) == expected

    def test_equivalence_with_colinear_points(self):
        ps = PointSet([(float(i), 0.0) for i in range(50)])
        iv = IntervalFamily([1.0, 7.0, 30.0], 1.0)
        assert (
            count_pairs(ps, iv, "brute").per_interval
            == count_pairs(ps, iv, "pruned").per_interval
        )

    def test_pruned_memory_stays_linear(self):
        # Two far-apart 2000-point columns: their 4M cross pairs must be
        # evaluated in chunks, never held at once (64 MB per float array).
        built = two_column(n=4000, k=3, t=1e7, eps=0.5)
        tracemalloc.start()
        try:
            count_pairs(built.ps, built.iv, "pruned")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestRingBound:
    @given(seed=st.integers(0, 5_000), t=st.floats(1.0, 20.0), n=st.integers(10, 300))
    @settings(max_examples=30, deadline=None)
    def test_separated_count_below_ring_bound(self, seed, t, n):
        # each point admits at most 8(2t + 1) partners in [t, t + 1] because
        # disjoint half-unit disks around partners fit in the widened ring
        ps = random_separated(n, 2.0 * math.sqrt(n), seed)
        report = count_pairs(ps, IntervalFamily([t], 1.0), "pruned")
        assert report.total <= n * 8 * (2 * t + 1) / 2
