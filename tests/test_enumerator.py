"""Exactness of the grid pair enumerator (behind label_pairs and the pruned
count) and of the CSR graph built from it.

The enumerator skips a cell offset only when its conservative distance
bracket misses every interval, and the pruned count adds a cell block in bulk
only when the exact bracket of its points' extremes decides every pair's
label, so both must equal an all-pairs scan bit for bit, whatever cell side
they run on. These tests compare them with the pure-Python oracle on inputs
chosen to stress that claim, both at the side the cost model picks and at
forced sides from one cell to thousands per axis, with bulk adds tried on
every block or only on the large ones. The graph's CSR must not depend on
the order in which its edges are given, and label_pairs and build_graph must
stay within a memory budget per pair.
"""

import math
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily, NearEqualGraph, PointSet, build_graph, count_pairs, label_pairs, random_separated,
)
from neardist import counting, geometry
from neardist.constructions import two_column

from _oracles import oracle_labels


def _level_side(coords, level):
    """_choose_label_grid's cell side at the given level: the power of two
    2**(e - level), for an extent in [2**(e - 1), 2**e)."""
    extent = max(np.ptp(coords[:, 0]), np.ptp(coords[:, 1]), geometry._MIN_EXTENT)
    return math.ldexp(1.0, math.frexp(float(extent))[1] - level)


def _forced_grid(level):
    """A _choose_label_grid stand-in with the side of the given level, on
    which the count tries bulk adds whatever the grid's size."""

    def choose(coords, lo2, hi2, bulk):
        grid = counting._bucket_cells(coords[:, 0], coords[:, 1], _level_side(coords, level))
        return grid, counting._offset_rows(grid.side, grid.nx, grid.ny, lo2, hi2), bulk

    return choose


@st.composite
def labeled_inputs(draw):
    """(points, t, alpha) in one of the shapes that stress the enumerator."""
    shape = draw(st.sampled_from(
        ["lattice", "translated", "one-cell", "far-t", "columns", "huge", "blocks"]))
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
    elif shape == "blocks":
        # Clusters on the corners of a 3-4-5 rectangle, most with repeated
        # points: whole cell blocks sit exactly on t or t + alpha, some
        # families overlap, and some clusters are shifted by about 1e9.
        scale = draw(st.sampled_from([1.0, 0.5, 3.0]))
        shift = draw(st.sampled_from([0.0, 1e9, -1e9 + 0.25]))
        corners = draw(st.lists(st.sampled_from(
            [(0, 0), (3, 0), (4, 0), (0, 3), (0, 4), (3, 4), (4, 3), (6, 0), (0, 8), (8, 6)]),
            min_size=2, max_size=4, unique=True))
        points = [(x * scale + shift, y * scale) for x, y in draw(
            st.lists(st.sampled_from(corners), min_size=n, max_size=n))]
        t, alpha = draw(st.sampled_from([
            ([3], 2), ([3], 1e-12), ([4], 1), ([2, 3], 2), ([3, 4], 1.5), ([2, 5], 1), ([5, 6], 4)]))
        t = [v * scale for v in t]
        alpha *= scale
    else:
        # Coordinates up to the 2**510 limit: cell brackets overflow to inf.
        unit = 2.0**509
        points = [(x * unit / 2, y * unit / 2) for x, y in draw(st.lists(
            st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=n, max_size=n))]
        t = [unit / 2, unit, 2 * unit]
        alpha = unit * draw(st.sampled_from([0.5, 1.0, 2.0**-40]))
    return points, [float(v) for v in t], alpha


class TestLabelPairsExact:
    @given(
        data=labeled_inputs(),
        level=st.none() | st.integers(-1, 12),
        bulk_min=st.sampled_from([1, counting._BULK_MIN_PAIRS]),
    )
    @settings(max_examples=400, deadline=None)
    # One point: the smallest cell side meets the largest interval.
    @example(data=([(0.0, 0.0)], [2.0**508, 2.0**509, 2.0**510], 2.0**508), level=None, bulk_min=1)
    # One block at distances 4 and 5, bracketed by [4, 5]: inside [4, 5.5],
    # yet the pair at 4 takes the earlier, overlapping [3, 4.5].
    @example(data=([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)], [3.0, 4.0], 1.5), level=1, bulk_min=1)
    # Blocks whose every pair sits exactly on t, or exactly on t + alpha.
    @example(data=([(0.0, 0.0)] * 3 + [(3.0, 0.0)] * 3, [3.0], 1e-12), level=1, bulk_min=1)
    @example(data=([(0.0, 0.0)] * 3 + [(3.0, 4.0)] * 3, [3.0], 2.0), level=1, bulk_min=1)
    def test_matches_oracle_and_brute_count(self, data, level, bulk_min):
        points, t, alpha = data
        ps, iv = PointSet(points), IntervalFamily(t, alpha)
        chooser = counting._choose_label_grid if level is None else _forced_grid(level)
        with mock.patch.object(counting, "_choose_label_grid", chooser), mock.patch.object(
            counting, "_BULK_MIN_PAIRS", bulk_min
        ):
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

    @pytest.mark.parametrize("t, alpha", [([1.0, 3.0, 10000.0], 0.1), ([1.0], 1e-12),
                                          ([2.0**400], 1.0), ([2.0**509, 2.0**510], 2.0**509)])
    def test_one_cell_grid_keeps_only_the_cell_itself(self, t, alpha):
        # A side of inf: every bracket is [0, inf], with no 0 * inf on the way.
        lo2, hi2 = IntervalFamily(t, alpha).sq_bounds
        rows = counting._offset_rows(math.inf, 1, 1, lo2, hi2)
        assert [(r.dtype, r.tolist()) for r in rows] == [(np.int64, [0])] * 3


class TestJoinPaths:
    @given(data=labeled_inputs(), level=st.none() | st.integers(-1, 12))
    @settings(max_examples=300, deadline=None)
    # The one-cell grid of side inf, where the offset rows once took 0 * inf.
    @example(data=([(0.0, 0.0), (10000.0, 0.0)], [1.0, 3.0, 10000.0], 0.1), level=None)
    def test_table_and_search_agree(self, data, level):
        points, t, alpha = data
        coords = np.array(points)
        side = math.inf if level is None else _level_side(coords, level)
        grid = counting._bucket_cells(coords[:, 0], coords[:, 1], side)
        lo2, hi2 = IntervalFamily(t, alpha).sq_bounds
        rows = counting._offset_rows(grid.side, grid.nx, grid.ny, lo2, hi2)
        # The edges of the half-plane, offset by offset and as whole runs:
        # a = 0 with b >= 0, and the last column a = nx - 1 with every b.
        top = grid.ny - 1
        edges = [(0, b, b) for b in range(top + 1)] + [(0, 0, top)]
        if grid.nx > 1:
            edges += [(grid.nx - 1, b, b) for b in range(-top, top + 1)] + [(grid.nx - 1, -top, top)]
        rows = [np.concatenate((r, e)) for r, e in zip(rows, np.array(edges, dtype=np.int64).T)]
        with mock.patch.object(geometry, "_below_by_search", geometry._below_by_table):
            by_table = geometry._join_cells(grid, *rows)
        with mock.patch.object(geometry, "_below_by_table", geometry._below_by_search):
            by_search = geometry._join_cells(grid, *rows)
        for got, want in zip(by_table, by_search):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_dense_grid_takes_table_sparse_grid_search(self):
        rng = np.random.default_rng(0)
        # A jittered 45 x 45 lattice of spacing 2: about one point per cell.
        lattice = 2.0 * np.stack(np.divmod(np.arange(2000), 45), axis=1)
        jittered = PointSet(lattice + rng.uniform(-0.4, 0.4, lattice.shape))
        columns = two_column(400, 3, 1e6, 0.2)
        cases = ((jittered, IntervalFamily([3.0, 13.0, 45.0], 1.0), "table"),
                 (columns.ps, columns.iv, "search"))
        for ps, iv, path in cases:
            chosen, taken = [], []

            def choose(*args, choose=counting._choose_label_grid):
                chosen.append(choose(*args))
                return chosen[-1]

            def spy(name):
                below = getattr(geometry, f"_below_by_{name}")

                def record(cells, q):
                    taken.append((name, cells))
                    return below(cells, q)

                return mock.patch.object(geometry, f"_below_by_{name}", record)

            with spy("table"), spy("search"), mock.patch.object(
                counting, "_choose_label_grid", choose
            ):
                count_pairs(ps, iv, "pruned")
            # Every join on the chosen grid, the count's batches included.
            assert {name for name, cells in taken if cells is chosen[0][0]} == {path}


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

    @pytest.mark.parametrize("v", [-1, -5, 4, 5], ids=["-1", "-n-1", "n", "n+1"])
    @pytest.mark.parametrize(
        "call",
        [
            lambda g, v: g.has_edge(v, 0),
            lambda g, v: g.has_edge(0, v),
            lambda g, v: g.label(v, 3),
            lambda g, v: g.label(3, v),
            lambda g, v: g.neighbors(v),
        ],
        ids=["has_edge-first", "has_edge-second", "label-first", "label-second", "neighbors"],
    )
    def test_vertex_out_of_range_raises(self, call, v):
        # A negative id must not wrap to a row counted from the end.
        g = NearEqualGraph(4, [0, 1, 2], [3, 3, 3], [1, 2, 1])
        with pytest.raises(IndexError, match=f"vertex {v} out of range for n=4"):
            call(g, v)

    @given(data=st.data(), n=st.integers(2, 12))
    @settings(max_examples=200, deadline=None)
    def test_csr_matches_reference_in_any_edge_order(self, data, n):
        edges = sorted(data.draw(st.sets(st.sampled_from(list(combinations(range(n), 2))))))
        labels = data.draw(st.lists(st.integers(1, 5), min_size=len(edges), max_size=len(edges)))
        adj = {v: {} for v in range(n)}
        for (a, b), l in zip(edges, labels):
            adj[a][b] = adj[b][a] = l
        order = data.draw(st.permutations(range(len(edges))))
        swap = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        i = [edges[e][s] for e, s in zip(order, swap)]
        j = [edges[e][1 - s] for e, s in zip(order, swap)]
        shuffled = NearEqualGraph(n, i, j, [labels[e] for e in order])
        presorted = NearEqualGraph(n, [a for a, _ in edges], [b for _, b in edges], labels)
        for g in (shuffled, presorted):
            assert g.indptr.tolist() == [0, *np.cumsum([len(adj[v]) for v in range(n)]).tolist()]
            assert g.indices.tolist() == [w for v in range(n) for w in sorted(adj[v])]
            assert g.labels.tolist() == [adj[v][w] for v in range(n) for w in sorted(adj[v])]
            assert g.indptr.dtype == g.indices.dtype == g.labels.dtype == np.int64


class TestPairOutputMemory:
    @pytest.mark.parametrize("build, budget", [(label_pairs, 80), (build_graph, 112)],
                             ids=["label_pairs", "build_graph"])
    def test_peak_bytes_per_pair(self, build, budget):
        # label_pairs holds one sort key and one label per pair, and the graph
        # build sorts one row array: about 62 and 89 bytes a pair at their
        # peaks here. The budgets leave about a quarter of headroom.
        ps = random_separated(5000, 2 * math.sqrt(5000), seed=5)
        iv = IntervalFamily([3.0, 13.0, 45.0, 150.0, 500.0], 1.0)
        tracemalloc.start()
        try:
            out = build(ps, iv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pairs = len(out) if build is label_pairs else out.edge_count
        assert pairs > 150_000
        assert peak / pairs <= budget
