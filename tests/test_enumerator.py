"""Exactness of the grid pair enumerator (behind label_pairs and the pruned
count) and of the CSR graph built from it.

The enumerator skips a cell offset only when its conservative distance
bracket misses every interval, so its output must equal an all-pairs scan
bit for bit, whatever cell side it runs on. These tests compare it with the
pure-Python oracle on inputs chosen to stress that claim, both at the side the
cost model picks and at forced sides from one cell to thousands per axis.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardist import IntervalFamily, NearEqualGraph, PointSet, build_graph, count_pairs, label_pairs
from neardist import counting

from _oracles import oracle_labels


def _forced_grid(level):
    """A _choose_label_grid stand-in with side extent / 2**level."""

    def choose(coords, lo2, hi2):
        extent = max(np.ptp(coords[:, 0]), np.ptp(coords[:, 1]), counting._MIN_LABEL_EXTENT)
        side = math.ldexp(float(extent), -level)
        grid = counting._bucket_cells(coords[:, 0], coords[:, 1], side)
        return grid, counting._offset_rows(grid.side, grid.nx, grid.ny, lo2, hi2)

    return choose


@st.composite
def labeled_inputs(draw):
    """(points, t, alpha) in one of the shapes that stress the enumerator."""
    shape = draw(st.sampled_from(
        ["lattice", "translated", "one-cell", "far-t", "columns", "huge"]))
    n = draw(st.integers(1, 36))
    lattice = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=n, max_size=n)
    alpha = draw(st.sampled_from([1.0, 0.5, 2.0, 1e-12]))
    if shape in ("lattice", "translated"):
        # Integer t and lattice distances: many pairs sit exactly on endpoints.
        scale = draw(st.sampled_from([1.0, 0.5, 3.0]))
        shift = 0.0 if shape == "lattice" else draw(
            st.sampled_from([1e9, -1e9, 1e9 + 0.25, -1e9 + 0.5]))
        points = [(x * scale + shift, y * scale + shift) for x, y in draw(lattice)]
        t = sorted(draw(st.sets(st.integers(1, 9), min_size=1, max_size=4)))
    elif shape == "one-cell":
        # Every point within a unit box: qualifying pairs only for t = 1.
        points = [(x / 8.0, y / 8.0) for x, y in draw(lattice)]
        t = [1.0, 2.0]
        alpha = draw(st.sampled_from([0.1, 1e-12]))
    elif shape == "far-t":
        points = [(float(x), float(y)) for x, y in draw(lattice)]
        t = [1.0, 2.0, draw(st.sampled_from([20.0, 1e6, 2.0**400]))]
    elif shape == "columns":
        # Unit-spaced columns whose gap T dwarfs both the spacing and alpha.
        gap = draw(st.sampled_from([1e4, 359880010.0, 1e6 + 0.5]))
        half = n // 2
        points = [(0.0, float(y)) for y in range(n - half)] + [(gap, float(y)) for y in range(half)]
        t = [1.0, 3.0, gap]
        alpha = draw(st.sampled_from([0.1, 0.5, 1e-12]))
    else:
        # Coordinates up to the 2**510 limit: cell brackets overflow to inf.
        unit = 2.0**509
        points = [(x * unit / 2, y * unit / 2) for x, y in draw(st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=n, max_size=n))]
        t = [unit / 2, unit, 2 * unit]
        alpha = unit * draw(st.sampled_from([0.5, 1.0, 2.0**-40]))
    return points, [float(v) for v in t], alpha


class TestLabelPairsExact:
    @given(data=labeled_inputs(), level=st.none() | st.integers(-1, 12))
    @settings(max_examples=300, deadline=None)
    # One point: the smallest cell side meets the largest interval.
    @example(data=([(0.0, 0.0)], [2.0**508, 2.0**509, 2.0**510], 2.0**508), level=None)
    def test_matches_oracle_and_brute_count(self, data, level):
        points, t, alpha = data
        ps, iv = PointSet(points), IntervalFamily(t, alpha)
        chooser = counting._choose_label_grid if level is None else _forced_grid(level)
        with mock.patch.object(counting, "_choose_label_grid", chooser):
            got = label_pairs(ps, iv)
            pruned = count_pairs(ps, iv, "pruned").per_interval
        want = oracle_labels(points, t, alpha)
        assert list(got) == want
        per = tuple(np.bincount(got.label, minlength=iv.k + 1)[1:].tolist())
        assert per == count_pairs(ps, iv, "brute").per_interval == pruned

    @given(data=labeled_inputs())
    @settings(max_examples=100, deadline=None)
    def test_graph_agrees_with_oracle_dict(self, data):
        points, t, alpha = data
        g = build_graph(PointSet(points), IntervalFamily(t, alpha))
        want = {(i, j): l for i, j, l in oracle_labels(points, t, alpha)}
        assert g.edge_count == len(want)
        for a in range(g.n):
            nbrs = {b for b in range(g.n) if (min(a, b), max(a, b)) in want}
            assert g.neighbors(a) == frozenset(nbrs)
            for b in range(g.n):
                key = (min(a, b), max(a, b))
                assert g.has_edge(a, b) == (key in want)
                if key in want:
                    assert g.label(a, b) == want[key]

    def test_types_and_order(self):
        ps = PointSet([(0.0, 0.0), (3.0, 0.0), (0.0, 1.0), (3.0, 1.0)])
        got = label_pairs(ps, IntervalFamily([1.0, 3.0], 0.2))
        assert len(got) == 6
        assert list(got) == [(0, 1, 2), (0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 1), (2, 3, 2)]
        assert all(type(v) is int for triple in got for v in triple)
        assert got.i.dtype == got.j.dtype == got.label.dtype == np.int64


class TestOffsetRows:
    @given(
        side=st.sampled_from([0.3, 1.0, 2.5, 7.0, 1e-3]),
        nx=st.integers(1, 40),
        ny=st.integers(1, 40),
        t=st.lists(st.floats(1.0, 60.0), min_size=1, max_size=4, unique=True),
        alpha=st.sampled_from([1e-12, 0.3, 1.0, 8.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_are_the_non_skip_offsets(self, side, nx, ny, t, alpha):
        iv = IntervalFamily(sorted(t), alpha)
        lo2, hi2 = iv.sq_bounds
        a, b_lo, b_hi = counting._offset_rows(side, nx, ny, lo2, hi2)
        got = [(int(x), int(b)) for x, lo, hi in zip(a, b_lo, b_hi) for b in range(lo, hi + 1)]
        assert len(got) == len(set(got)), "an offset is enumerated twice"
        # Non-skip: the offset's bracket meets some [lo2[l], hi2[l]].
        x, b = np.meshgrid(np.arange(nx), np.arange(-ny + 1, ny), indexing="ij")
        bmin2, bmax2 = counting._sq_bracket(x, np.abs(b), side)
        meets = ((bmin2[..., None] <= hi2) & (bmax2[..., None] >= lo2)).any(axis=-1)
        keep = meets & ((x > 0) | (b >= 0))
        want = set(zip(x[keep].tolist(), b[keep].tolist()))
        assert set(got) == want


class TestGraphConstruction:
    def test_unsorted_edges_give_sorted_rows(self):
        g = NearEqualGraph(4, [3, 0, 2, 1], [1, 2, 3, 0], [5, 7, 6, 8])
        assert g.indptr.tolist() == [0, 2, 4, 6, 8]
        assert g.indices.tolist() == [1, 2, 0, 3, 0, 3, 1, 2]
        assert g.labels.tolist() == [8, 7, 8, 5, 7, 6, 5, 6]
        assert g.label(2, 0) == 7 and g.edge_count == 4

    @pytest.mark.parametrize(
        "i, j", [([0], [0]), ([0], [4]), ([-1], [2]), ([0, 1], [1, 0])],
        ids=["loop", "beyond-n", "negative", "duplicate"],
    )
    def test_bad_edges_rejected(self, i, j):
        with pytest.raises(ValueError):
            NearEqualGraph(4, i, j, [1] * len(i))

    def test_missing_edge_label_raises(self):
        g = NearEqualGraph(3, [0], [1], [1])
        assert not g.has_edge(0, 2)
        with pytest.raises(KeyError):
            g.label(0, 2)
