import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily,
    PointSet,
    TriangleCase,
    TripartiteWitness,
    angle_diagnostic,
    augmented_chain,
    build_graph,
    classify_label_triple,
    count_pairs,
    find_tripartite,
    homogenize,
    random_separated,
    triangle_angle_bounds,
    two_column,
)

from neardist import counting

from _oracles import (
    OracleGraph,
    oracle_labels,
    oracle_tripartite_exists,
    validate_homogeneous,
    validate_tripartite,
)


class TestBuildGraph:
    def test_single_edge(self):
        ps = PointSet([(0.0, 0.0), (3.2, 0.0)])
        g = build_graph(ps, IntervalFamily([3.0], 1.0))
        assert g.edge_count == 1
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.label(0, 1) == 1
        assert repr(g) == "NearEqualGraph(n=2, edges=1)"

    def test_chain_edge_count_matches_pair_count(self):
        built = augmented_chain(30, 3, 2000)
        g = build_graph(built.ps, built.iv)
        assert g.edge_count == 351 == count_pairs(built.ps, built.iv).total

    def test_empty_graph(self):
        ps = PointSet([(0.0, 0.0), (100.0, 0.0), (200.0, 7.0)])
        g = build_graph(ps, IntervalFamily([5.0], 1.0))
        assert g.edge_count == 0
        assert g.neighbors(0) == frozenset()


class TestFindTripartite:
    def test_empty_graph_has_no_witness(self):
        ps = PointSet([(0.0, 0.0), (100.0, 0.0)])
        g = build_graph(ps, IntervalFamily([5.0], 1.0))
        assert find_tripartite(g, 1) is None

    def test_two_column_triangle(self):
        built = two_column(6, 2, 200, 0.4)
        g = build_graph(built.ps, built.iv)
        w = find_tripartite(g, 1)
        assert w is not None
        assert validate_tripartite(g, w)
        # least hub is the bottom of the first column; the triangle closes
        # through its vertical neighbor and a point of the far column
        assert w.x == 0

    def test_chain_s2_witness(self):
        built = augmented_chain(30, 3, 2000)
        g = build_graph(built.ps, built.iv)
        w = find_tripartite(g, 2)
        assert w is not None and w.s == 2
        assert validate_tripartite(g, w)

    def test_deterministic_least_witness(self):
        built = augmented_chain(30, 3, 2000)
        g = build_graph(built.ps, built.iv)
        assert find_tripartite(g, 2) == find_tripartite(g, 2)

    def test_invalid_size(self):
        ps = PointSet([(0.0, 0.0), (3.0, 0.0)])
        g = build_graph(ps, IntervalFamily([3.0], 1.0))
        with pytest.raises(ValueError):
            find_tripartite(g, 0)

    @given(
        seed=st.integers(0, 3000),
        n=st.integers(2, 12),
        s=st.integers(1, 2),
        t2=st.floats(2.2, 6.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_enumeration(self, seed, n, s, t2):
        ps = random_separated(n, max(6.0, 2.6 * math.sqrt(n)), seed)
        g = build_graph(ps, IntervalFamily([1.0, t2], 1.0))
        found = find_tripartite(g, s)
        assert (found is not None) == oracle_tripartite_exists(g, s)
        if found is not None:
            assert validate_tripartite(g, found)

    @given(seed=st.integers(0, 3000), n=st.integers(3, 9), s=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_returns_lexicographic_least(self, seed, n, s):
        from itertools import combinations

        ps = random_separated(n, max(6.0, 2.8 * math.sqrt(n)), seed)
        g = build_graph(ps, IntervalFamily([1.0, 3.0], 1.0))
        best = None
        for x in range(g.n):
            nb = sorted(g.neighbors(x))
            for B in combinations(nb, s):
                for D in combinations([v for v in nb if v not in B], s):
                    if all(g.has_edge(b, d) for b in B for d in D):
                        cand = (x, B, D)
                        if best is None or cand < best:
                            best = cand
        found = find_tripartite(g, s)
        got = None if found is None else (found.x, found.B, found.D)
        assert got == best


def _assert_same_graph(ps, iv):
    """The graph reads the pure-Python oracle's degrees, hubs, labels,
    witnesses and refinements, bit for bit."""
    g = build_graph(ps, iv)
    want = OracleGraph(ps.n, oracle_labels(ps.coords.tolist(), iv.t, iv.alpha))
    assert (g.n, g.edge_count) == (want.n, want.edge_count)
    np.testing.assert_array_equal(g._degrees, want._degrees)
    for x in range(min(ps.n, 40)):
        (nbrs, *edges), (want_nbrs, *want_edges) = g._hub(x), want._hub(x)
        np.testing.assert_array_equal(nbrs, want_nbrs)
        assert set(zip(*edges)) == set(zip(*want_edges))
    for s in (1, 2, 3):
        w = find_tripartite(g, s)
        assert w == find_tripartite(want, s)
        if w is None:
            continue
        pairs = [(w.x, v) for v in w.B + w.D] + [(b, d) for b in w.B for d in w.D]
        assert [g.label(*p) for p in pairs] == [want.label(*p) for p in pairs]
        for m in range(1, s + 1):
            assert homogenize(g, w, m) == homogenize(want, w, m)


def _lattice(w, h, shift):
    return PointSet([(a + shift[0], b + shift[1]) for a in range(w) for b in range(h)])


class TestPointGraph:
    @given(seed=st.integers(0, 3000), n=st.integers(2, 40), t2=st.floats(2.2, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_random_sets_match_oracle(self, seed, n, t2):
        ps = random_separated(n, max(6.0, 2.6 * math.sqrt(n)), seed)
        _assert_same_graph(ps, IntervalFamily([1.0, t2], 1.0))

    # Integer lattices put many pairs exactly on t (2, 5) and on t + alpha (3, 6);
    # an exact translation by (1e9, -1e9) keeps them there, an inexact one moves
    # them off by rounding, and every cell index is a difference of large floors.
    @given(w=st.integers(1, 9), h=st.integers(2, 9),
           shift=st.sampled_from([(0.0, 0.0), (1e9, -1e9), (1e9 + 0.37, -1e9 + 0.11)]))
    @settings(max_examples=40, deadline=None)
    def test_lattices_match_oracle(self, w, h, shift):
        _assert_same_graph(_lattice(w, h, shift), IntervalFamily([2.0, 5.0], 1.0))

    def test_column_construction_on_the_tree(self):
        built = two_column(40, 3, 400, 0.5)
        lo2, hi2 = built.iv.sq_bounds
        walk = counting._visit_hits(built.ps.coords, lo2, hi2, lambda *args: None, np.empty(0))
        assert walk.walk == "tree"
        _assert_same_graph(built.ps, built.iv)

    def test_no_hub_of_degree_2s(self):
        # A path of four points: degrees 1, 2, 2, 1, so no hub for s = 2.
        ps = PointSet([(0.0, 0.0), (3.0, 0.0), (6.0, 0.0), (9.0, 0.0)])
        g = build_graph(ps, IntervalFamily([3.0], 0.5))
        assert g._degrees.tolist() == [1, 2, 2, 1]
        assert find_tripartite(g, 1) is None and find_tripartite(g, 2) is None

    def test_label_of_a_non_edge_or_a_non_vertex(self):
        g = build_graph(PointSet([(0.0, 0.0), (3.0, 0.0), (9.0, 0.0)]), IntervalFamily([3.0], 0.5))
        assert g.label(1, 0) == g.label(0, 1) == 1
        with pytest.raises(KeyError):
            g.label(0, 2)
        with pytest.raises(KeyError):
            g.label(0, 0)
        with pytest.raises(IndexError, match="vertex -1 out of range for n=3"):
            g.label(-1, 0)


class TestHomogenize:
    def _chain_graph(self):
        built = augmented_chain(30, 3, 2000)
        return build_graph(built.ps, built.iv)

    def test_m1_always_succeeds(self):
        g = self._chain_graph()
        w = find_tripartite(g, 2)
        refined = homogenize(g, w, 1)
        assert refined is not None and refined.m == 1
        assert validate_homogeneous(g, refined)

    def test_single_interval_family_is_trivially_constant(self):
        grid = PointSet([(float(x), float(y)) for x in range(3) for y in range(3)])
        g = build_graph(grid, IntervalFamily([1.0], 1.0))
        w = find_tripartite(g, 2)
        assert w is not None
        refined = homogenize(g, w, 2)
        assert refined is not None
        assert refined.B2 == w.B[:2] and refined.D2 == w.D[:2]
        assert refined.label_xb == refined.label_xd == refined.label_bd == 1

    def test_same_column_witness_has_unit_cross_label(self):
        # hub in the first column, B and D interleaved in the second column:
        # hub-B and hub-D edges use the column gap, B-D edges the unit interval
        g = self._chain_graph()
        w = TripartiteWitness(x=0, B=(10, 13), D=(11, 12))
        assert validate_tripartite(g, w)
        refined = homogenize(g, w, 2)
        assert refined is not None
        assert validate_homogeneous(g, refined)
        assert refined.label_xb == 2 and refined.label_xd == 2
        assert refined.label_bd == 1

    def test_found_witness_homogenizes(self):
        g = self._chain_graph()
        w = find_tripartite(g, 2)
        refined = homogenize(g, w, 2)
        assert refined is not None
        assert validate_homogeneous(g, refined)

    def test_m_out_of_range(self):
        g = self._chain_graph()
        w = find_tripartite(g, 2)
        with pytest.raises(ValueError):
            homogenize(g, w, 3)
        with pytest.raises(ValueError):
            homogenize(g, w, 0)


class TestClassifyLabelTriple:
    def test_examples(self):
        assert classify_label_triple(1, 2, 3) is TriangleCase.UNIQUE_MAX
        assert classify_label_triple(2, 2, 2) is TriangleCase.TIED_MAX
        assert classify_label_triple(3, 1, 3) is TriangleCase.TIED_MAX

    @given(
        labels=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        perm=st.permutations([0, 1, 2]),
    )
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariant(self, labels, perm):
        shuffled = tuple(labels[p] for p in perm)
        assert classify_label_triple(*labels) is classify_label_triple(*shuffled)


class TestTriangleAngleBounds:
    def test_half_value(self):
        mpmath.mp.dps = 40
        expected = float(2 * mpmath.asin(mpmath.mpf(1) / 6))
        bounds = triangle_angle_bounds(0.5)
        assert abs(bounds.min_angle - expected) < 1e-12
        assert bounds.max_angle_margin == 2 * bounds.min_angle

    def test_quarter_argument(self):
        bounds = triangle_angle_bounds(2.0 / 3.0)
        assert bounds.min_angle == pytest.approx(2 * math.asin(0.25), abs=1e-15)

    def test_small_delta_slope(self):
        delta = 1e-4
        assert triangle_angle_bounds(delta).min_angle / delta == pytest.approx(
            0.5, abs=1e-3
        )

    def test_strictly_increasing(self):
        grid = [0.01 * i for i in range(1, 100)]
        values = [triangle_angle_bounds(d).min_angle for d in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_delta(self):
        for delta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                triangle_angle_bounds(delta)


def _triangle_points(side_ij, side_jk, side_ki):
    """Place a triangle with the given side lengths, i at the origin."""
    x = (side_ij**2 + side_ki**2 - side_jk**2) / (2 * side_ij)
    y = math.sqrt(max(0.0, side_ki**2 - x**2))
    return PointSet([(0.0, 0.0), (side_ij, 0.0), (x, y)])


class TestAngleDiagnostic:
    def test_law_of_cosines_agreement(self):
        sides = (180.25, 100.2, 100.3)  # ij, jk, ki
        ps = _triangle_points(*sides)
        iv = IntervalFamily([100.0, 180.0], 0.5)
        report = angle_diagnostic(ps, (0, 1, 2), iv, 0.1)
        assert report.labels == (2, 1, 1)
        assert report.degenerate is False

        def oracle_angle(opp, a, b):
            return math.acos((a * a + b * b - opp * opp) / (2 * a * b))

        ij, jk, ki = sides
        expected = (
            oracle_angle(jk, ij, ki),
            oracle_angle(ki, ij, jk),
            oracle_angle(ij, jk, ki),
        )
        for got, want in zip(report.angles, expected):
            assert got == pytest.approx(want, abs=1e-9)
        assert sum(report.angles) == pytest.approx(math.pi, abs=1e-9)
        # wide triangle at delta = 0.1 satisfies both bounds
        assert report.min_angle_ok and report.max_angle_ok

    def test_rejects_tied_max_labels(self):
        ps = _triangle_points(100.2, 100.3, 100.4)
        iv = IntervalFamily([100.0], 0.5)
        with pytest.raises(ValueError):
            angle_diagnostic(ps, (0, 1, 2), iv, 0.1)

    def test_rejects_non_edges(self):
        ps = _triangle_points(100.2, 100.3, 100.4)
        iv = IntervalFamily([100.0], 0.25)  # 100.3 and 100.4 fall outside
        with pytest.raises(ValueError):
            angle_diagnostic(ps, (0, 1, 2), iv, 0.1)

    def test_degenerate_collinear(self):
        ps = PointSet([(0.0, 0.0), (100.2, 0.0), (200.4, 0.0)])
        iv = IntervalFamily([100.0, 200.0], 0.5)
        report = angle_diagnostic(ps, (0, 1, 2), iv, 0.1)
        # A Python bool, not np.bool_, so that asdict(report) stays strict JSON.
        assert report.degenerate is True
        assert report.angles is None
        assert report.min_angle_ok is None and report.max_angle_ok is None

    @pytest.mark.parametrize("ids", [(-4, 1, 2), (0, -1, 2), (0, 1, 4)])
    def test_vertex_out_of_range_raises(self, ids):
        # A 3-4-5 triangle at points 0, 1 and 2: -4 must not wrap to point 0.
        ps = PointSet([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (20.0, 20.0)])
        iv = IntervalFamily([3.0, 4.0, 5.0], 0.5)
        assert angle_diagnostic(ps, (0, 1, 2), iv, 0.1).labels == (1, 2, 3)
        bad = next(v for v in ids if not 0 <= v < 4)
        with pytest.raises(IndexError, match=f"vertex {bad} out of range for n=4"):
            angle_diagnostic(ps, ids, iv, 0.1)

    def test_flags_violated_bound(self):
        # thin triangle: apex angle close to pi exceeds the margin at delta 0.9
        ps = _triangle_points(200.5, 100.2, 100.4)
        iv = IntervalFamily([100.0, 200.0], 0.5)
        report = angle_diagnostic(ps, (0, 1, 2), iv, 0.9)
        assert not report.degenerate
        assert report.max_angle_ok is False
