"""Exactness of the pair walk (behind label_pairs, the pruned count and the
graph's degrees) and of the graph read from the points.

The tree drops or adds a node pair in bulk only when the exact bracket of
its points' extremes decides every pair's label, and the image pass skips a
cell offset only when its exact distance bracket misses every interval, so
both must equal an all-pairs scan bit for bit. These tests compare them with
the pure-Python oracle on inputs chosen to stress that claim: on the walk as
picked, on the tree forced with leaves of 1 and 256 pairs, and on the image
forced at sides from one cell to dozens per axis; the graph's degree walk,
neighbours and labels are held to the same oracle, and the count and
label_pairs must not move under exact symmetries of the input. The graph
checks its vertex ids, label_pairs must stay within a memory budget per
pair, and the graph with its witness search within one per point.
"""

import contextlib
import hashlib
import importlib.util
import math
import tracemalloc
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neardist import (
    IntervalFamily, PointSet, build_graph, count_pairs, find_tripartite, label_pairs, random_separated,
)
from neardist import counting, geometry, graphs
from neardist.constructions import two_column

from _oracles import _sq_dist, oracle_count, oracle_labels
from conftest import forced_image, level_side

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


# The walk as picked, the tree forced (no image fits), or the image forced
# at a side: the image pass evaluates a slice pair per offset and layer, so
# it gets the coarser sides, where offsets are few.
forced_walks = st.none() | st.just("tree") | st.integers(-1, 5)


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


# Four points whose six pairs all lie in [1, 3].
_SWITCH_AFTER_BULK = ([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 1.0)], [1.0], 2.0)


class TestLabelPairsExact:
    @given(data=labeled_inputs(), forced=forced_walks, leaf=st.sampled_from([1, 256]))
    @settings(max_examples=400, deadline=None)
    # One point: the smallest cell side meets the largest interval.
    @example(data=([(0.0, 0.0)], [2.0**508, 2.0**509, 2.0**510], 2.0**508), forced=None, leaf=1)
    # One node pair at distances 4 and 5, bracketed by [4, 5]: inside
    # [4, 5.5], yet the pair at 4 takes the earlier, overlapping [3, 4.5].
    @example(data=([(0.0, 0.0), (4.0, 0.0), (4.0, 3.0)], [3.0, 4.0], 1.5), forced="tree", leaf=1)
    # Node pairs whose every pair sits exactly on t, or exactly on t + alpha.
    @example(data=([(0.0, 0.0)] * 3 + [(3.0, 0.0)] * 3, [3.0], 1e-12), forced="tree", leaf=1)
    @example(data=([(0.0, 0.0)] * 3 + [(3.0, 4.0)] * 3, [3.0], 2.0), forced="tree", leaf=1)
    # The same blocks as image layers: three points to a cell.
    @example(data=([(0.0, 0.0)] * 3 + [(3.0, 4.0)] * 3, [3.0], 2.0), forced=1, leaf=1)
    # Coordinates at the 2**510 limit on the image: every real pair's d2 stays finite.
    @example(data=([(2.0**510, 0.0), (-(2.0**510), 2.0**509)], [2.0**509], 2.0**510),
             forced=3, leaf=1)
    # A coarse level adds a node pair in bulk, then the walk switches to the
    # image, which counts that pair again: the bulk add must be dropped.
    @example(data=_SWITCH_AFTER_BULK, forced=None, leaf=1)
    def test_matches_oracle_and_brute_count(self, data, forced, leaf):
        points, t, alpha = data
        ps, iv = PointSet(points), IntervalFamily(t, alpha)
        patches = [mock.patch.object(counting, "_LEAF_PAIRS", leaf)]
        if forced == "tree":
            patches.append(mock.patch.object(counting, "_image_pick", lambda *args: None))
        elif forced is not None:
            image = forced_image(lambda coords: level_side(coords, forced))
            patches += [mock.patch.object(module, "_visit_hits", image) for module in (counting, graphs)]
        with contextlib.ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            got = label_pairs(ps, iv)
            pruned = count_pairs(ps, iv, "pruned").per_interval
            degrees = build_graph(ps, iv)._degrees
        want = oracle_labels(points, t, alpha)
        assert list(got) == want
        assert degrees.tolist() == np.bincount(np.append(got.i, got.j), minlength=ps.n).tolist()
        per = tuple(np.bincount(got.label, minlength=iv.k + 1)[1:].tolist())
        assert per == count_pairs(ps, iv, "brute").per_interval == pruned

    def test_switch_after_bulk_example_adds_then_switches(self):
        # The example above does what it stands for: the count adds a node
        # pair in bulk before it prices the image, then takes the image.
        points, t, alpha = _SWITCH_AFTER_BULK
        lo2, hi2 = IntervalFamily(t, alpha).sq_bounds
        events = []

        def meeting(b0, b1, lo2, hi2, real=counting._meeting):
            l0, l1 = real(b0, b1, lo2, hi2)
            at = np.minimum(l0, len(lo2) - 1)
            if "pick" not in events and ((b0 >= lo2[at]) & (b1 <= hi2[at])).any():
                events.append("bulk")
            return l0, l1

        def pick(*args, real=counting._image_pick):
            events.append("pick")
            return real(*args)

        per = np.zeros(len(t), dtype=np.int64)
        with mock.patch.object(counting, "_meeting", meeting), mock.patch.object(
            counting, "_image_pick", pick
        ), mock.patch.object(counting, "_LEAF_PAIRS", 1):
            walk = counting._visit_hits(np.array(points), lo2, hi2, lambda *args: None, per)
        assert walk.walk == "image" and events[:2] == ["bulk", "pick"]
        assert per.tolist() == [0]

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
            assert g._hub(a)[0].tolist() == sorted(nbrs)
            for b in range(g.n):
                key = (min(a, b), max(a, b))
                assert g.has_edge(a, b) == (key in want)
                if key in want:
                    assert g.label(a, b) == want[key]
                else:
                    with pytest.raises(KeyError):
                        g.label(a, b)

    def test_types_and_order(self):
        ps = PointSet([(0.0, 0.0), (3.0, 0.0), (0.0, 1.0), (3.0, 1.0)])
        got = label_pairs(ps, IntervalFamily([1.0, 3.0], 0.2))
        assert len(got) == 6
        assert list(got) == [(0, 1, 2), (0, 2, 1), (0, 3, 2), (1, 2, 2), (1, 3, 1), (2, 3, 2)]
        assert all(type(v) is int for triple in got for v in triple)
        assert got.i.dtype == got.j.dtype == got.label.dtype == np.int64


class TestExactSymmetry:
    """The pruned count and label_pairs, relabelled, stay put when the axes
    are swapped, an axis is negated, the points are permuted, or integer
    points are translated by an integer: all four keep every computed
    dx*dx + dy*dy, while the tree's origin, its cells and its switch to the
    image may all move."""

    @given(data=labeled_inputs(), transform=st.sampled_from(["swap", "negate", "permute", "translate"]),
           seed=st.integers(0, 2**32 - 1), leaf=st.sampled_from([1, 256]))
    @settings(max_examples=300, deadline=None)
    def test_count_and_labels_do_not_move(self, data, transform, seed, leaf):
        points, t, alpha = data
        iv = IntervalFamily(t, alpha)
        coords = np.array(points)
        rng = np.random.default_rng(seed)
        perm = np.arange(len(points))
        if transform == "swap":
            moved = coords[:, ::-1]
        elif transform == "negate":
            moved = coords * np.where(np.arange(2) == rng.integers(2), -1.0, 1.0)
        elif transform == "permute":
            perm = rng.permutation(len(points))
            moved = coords[perm]
        else:
            # Integers below 2**52 and a shift below 2**30 add exactly.
            assume(np.all(coords == np.round(coords)) and np.abs(coords).max() < 2.0**52)
            moved = coords + rng.integers(-(2**30), 2**30, size=2)
        with mock.patch.object(counting, "_LEAF_PAIRS", leaf):
            base = label_pairs(PointSet(coords), iv)
            got = label_pairs(PointSet(moved), iv)
            counts = [count_pairs(PointSet(c), iv, "pruned").per_interval for c in (coords, moved)]
        assert counts[0] == counts[1]
        # Point q of the moved set is point perm[q] of the original.
        relabelled = sorted((min(perm[i], perm[j]), max(perm[i], perm[j]), l) for i, j, l in got)
        assert relabelled == list(base)


@st.composite
def occupied_grids(draw):
    """(points, side, t, alpha): up to three points to a cell of a power-of-two
    side, some cells left empty, at quarter-cell positions so that distances
    are exact and many pairs sit exactly on t or t + alpha; some sets are
    translated by about 1e9."""
    side = draw(st.sampled_from([0.5, 1.0, 4.0]))
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)),
                          min_size=1, max_size=nx * ny, unique=True))
    quarter = st.integers(0, 3)
    spots = [(cx + fx / 4.0, cy + fy / 4.0) for cx, cy in cells
             for fx, fy in draw(st.lists(st.tuples(quarter, quarter), min_size=1, max_size=3))]
    sx, sy = draw(st.sampled_from([(0.0, 0.0), (1e9, -1e9), (-1e9 + 0.25, 1e9 + 0.5)]))
    points = [(x * side + sx, y * side + sy) for x, y in spots]
    # Quarter-cell steps of at least 1: t and t + alpha are exact distances.
    step = side / 4.0
    t = sorted(draw(st.sets(st.integers(math.ceil(1.0 / step), 40), min_size=1, max_size=3)))
    alpha = draw(st.sampled_from([1e-12, step, 4.0 * step]))
    return points, side, [v * step for v in t], alpha


@st.composite
def sparse_deep_grids(draw):
    """(points, side, t, alpha) whose image is deep and mostly empty: one
    cell of 3 to 5 points, one point in each corner cell, a few elsewhere,
    on a grid of 3 to 7 cells per axis, so at least two thirds of the
    image's slots are empty. Points sit at quarter-cell positions, as in
    occupied_grids; some sets are translated by about 1e9."""
    side = draw(st.sampled_from([0.5, 1.0, 4.0]))
    nx, ny = draw(st.integers(3, 7)), draw(st.integers(3, 7))
    cell = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1))
    quarter = st.tuples(st.integers(0, 3), st.integers(0, 3))
    deep = draw(cell)
    spots = [(deep, f) for f in draw(st.lists(quarter, min_size=3, max_size=5))]
    spots += [(c, draw(quarter)) for c in [(0, 0), (nx - 1, ny - 1), *draw(st.lists(cell, max_size=2))]]
    sx, sy = draw(st.sampled_from([(0.0, 0.0), (1e9, -1e9), (-1e9, 1e9)]))
    points = [((cx + fx / 4.0) * side + sx, (cy + fy / 4.0) * side + sy)
              for (cx, cy), (fx, fy) in draw(st.permutations(spots))]
    step = side / 4.0
    t = sorted(draw(st.sets(st.integers(math.ceil(1.0 / step), 40), min_size=1, max_size=3)))
    alpha = draw(st.sampled_from([1e-12, step, 4.0 * step]))
    return points, side, [v * step for v in t], alpha


def _image_pairs(points, side, offsets, lo2, hi2):
    """(pairs, labels) of the image pass at the offsets: pairs lists every pair
    that it evaluates as (key, bits of d2), with key = min * n + max and d2
    as read before the membership test; labels lists the qualifying ones as
    (key, label)."""
    n = len(points)
    coords = np.array(points)
    grid = counting._bucket_cells(coords[:, 0], coords[:, 1], side)
    labels, pairs, seen = [], [], []

    def keys(hit, i, j):
        i, j = (np.broadcast_to(v, hit.shape)[hit] for v in (i, j))
        return np.minimum(i, j) * n + np.maximum(i, j), np.minimum(i, j) >= 0

    def label(l, hit, i, j):
        labels.extend((k, l + 1) for k in keys(hit, i, j)[0].tolist())

    def everything(d2, lo2, hi2):
        seen.append(d2)
        yield 0, np.ones(d2.shape, dtype=bool)

    def pair(l, hit, i, j):
        key, real = keys(hit, i, j)
        d2 = seen[-1][hit]
        # An image slot pair with an empty slot evaluates to NaN.
        assert np.isnan(d2[~real]).all()
        pairs.extend(zip(key[real].tolist(), d2[real].view(np.int64).tolist()))

    counting._image_hits(coords, grid, offsets, lo2, hi2, label)
    with mock.patch.object(counting, "_label_hits", everything):
        counting._image_hits(coords, grid, offsets, lo2, hi2, pair)
    return sorted(pairs), sorted(labels)


def _walk(coords, lo2, hi2):
    """The walk _visit_hits takes for the pruned count, visiting nothing."""
    return counting._visit_hits(coords, lo2, hi2, lambda *args: None,
                                np.zeros(len(lo2), dtype=np.int64))


class TestImagePass:
    @given(data=occupied_grids())
    @settings(max_examples=300, deadline=None)
    # Three points in one cell, a pair on t there and one on t + alpha at the offset (1, -1).
    @example(data=([(0.0, 0.0), (0.0, 3.0), (3.0, 0.0), (4.0, -3.0)], 4.0, [3.0], 2.0))
    def test_same_pairs_and_bits_as_all_pairs(self, data):
        points, side, t, alpha = data
        coords = np.array(points)
        lo2, hi2 = IntervalFamily(t, alpha).sq_bounds
        grid = counting._bucket_cells(coords[:, 0], coords[:, 1], side)
        # Every offset of the half-plane, each with every interval [0, k).
        a, b = np.meshgrid(np.arange(grid.nx), np.arange(1 - grid.ny, grid.ny), indexing="ij")
        half = (a > 0) | (b >= 0)
        whole = (a[half], b[half], np.zeros(half.sum(), dtype=np.int64),
                 np.full(half.sum(), len(lo2)))
        n = len(points)
        want = sorted((i * n + j, int(np.float64(_sq_dist(points[i], points[j])).view(np.int64)))
                      for i, j in combinations(range(n), 2))
        assert _image_pairs(points, side, whole, lo2, hi2)[0] == want
        # At the offsets that _offsets keeps, with labels checked per offset.
        offsets = counting._offsets(grid, lo2, hi2)
        labels = [(i * n + j, l) for i, j, l in oracle_labels(points, t, alpha)]
        assert _image_pairs(points, side, offsets, lo2, hi2)[1] == labels

    @given(data=sparse_deep_grids())
    @settings(max_examples=200, deadline=None)
    def test_sparse_deep_image_matches_brute_and_oracle(self, data):
        # Empty slots hold NaN and must never qualify, on every layer.
        points, side, t, alpha = data
        ps, iv = PointSet(points), IntervalFamily(t, alpha)
        grid = counting._bucket_cells(ps.coords[:, 0], ps.coords[:, 1], side)
        m = int(np.diff(grid.starts).max())
        assert m >= 3 and m * grid.nx * grid.ny >= 3 * ps.n
        with mock.patch.object(counting, "_visit_hits", forced_image(lambda coords: side)):
            got = label_pairs(ps, iv)
            pruned = count_pairs(ps, iv, "pruned").per_interval
        assert list(got) == oracle_labels(points, t, alpha)
        assert pruned == count_pairs(ps, iv, "brute").per_interval == tuple(
            oracle_count(points, t, alpha)[1])

    def test_walk_takes_the_image_on_a_dense_grid_only(self):
        iv = IntervalFamily([3.0, 13.0, 45.0, 150.0, 500.0], 1.0)
        grid_like = random_separated(2000, 2 * math.sqrt(2000), seed=1)
        columns = two_column(12000, 5, 359880010, 0.1)
        cluster = random_separated(1000, 2 * math.sqrt(1000), seed=2).coords
        clusters = PointSet(np.concatenate((cluster, cluster + (1e6, 3e5))))
        for ps, fam, want in ((grid_like, iv, "image"), (columns.ps, columns.iv, "tree"),
                              (clusters, iv, "tree")):
            walk = _walk(ps.coords, *fam.sq_bounds)
            assert walk.walk == want
            if want == "image":
                # One point to a cell, as on the verify-uniform layout.
                assert int(np.diff(walk.grid.starts).max()) == 1

    @pytest.mark.parametrize("workload, pick", [
        ("verify-uniform", (2.0, "image", 1022, "e76daa090e2e19fb")),
        ("verify-columns", ("tree", 5262, 472434)),
        ("analyze-uniform", (2.0, "image", 1022, "e76daa090e2e19fb")),
    ])
    def test_walk_on_the_benchmark_inputs(self, workload, pick):
        # The seed-0 inputs of perfbench/workloads.py (search-small has no
        # point file). On the image: side, pass, the number of offsets, and
        # a digest of their (a, b, l0, l1) in (a, b) order. On the tree: the
        # node pairs it takes and the pairs it evaluates. Work on the walk's
        # speed must leave them as they are, or list the move as a change of
        # pick.
        spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
        wl = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(wl)
        n = {"verify-uniform": 16000, "verify-columns": 12000, "analyze-uniform": 10000}[workload]
        layout = "columns" if workload == "verify-columns" else "grid"
        rng = np.random.default_rng([0, wl.LAYOUT_SALT[layout], n])
        if layout == "columns":
            xy, (t, alpha) = wl.two_columns(n, 5, 0.1, rng), (wl.columns_params(n, 5, 0.1)[3], 0.1)
        else:
            xy, (t, alpha) = wl.jittered_grid(n, rng), ([3.0, 13.0, 45.0, 150.0, 500.0], 1.0)
        walk = _walk(xy, *IntervalFamily(t, alpha).sq_bounds)
        if walk.walk == "tree":
            assert (walk.walk, walk.node_pairs, walk.pairs) == pick
        else:
            a, b, l0, l1 = walk.offsets
            by = np.stack((a, b, l0, l1))[:, np.lexsort((b, a))]
            digest = hashlib.sha256(by.astype("<i8").tobytes()).hexdigest()[:16]
            assert (walk.grid.side, walk.walk, len(a), digest) == pick

    @pytest.mark.parametrize("shape", ["columns", "clusters"])
    def test_label_pairs_evaluates_the_counts_pairs_and_its_own_at_most(self, shape):
        # label_pairs takes the count's tree: it drops the node pairs the
        # count drops, and of the rest it evaluates, whole, only those the
        # count adds in bulk, whose pairs it lists. Neither walk evaluates
        # every pair.
        if shape == "columns":
            built = two_column(2000, 3, 1e6, 0.5)
            ps, iv = built.ps, built.iv
        else:
            cluster = random_separated(3000, 2 * math.sqrt(3000), seed=2).coords
            ps = PointSet(np.concatenate((cluster, cluster + (1e6, 3e5))))
            iv = IntervalFamily([3.0, 13.0, 45.0, 150.0, 500.0], 1.0)
        evaluated = []

        def sq_dists(xs, ys, i, j):
            evaluated.append(np.broadcast(i, j).size)
            return geometry._sq_dists(xs, ys, i, j)

        with mock.patch.object(counting, "_sq_dists", sq_dists):
            count_pairs(ps, iv, "pruned")
            counted = sum(evaluated)
            evaluated.clear()
            got = label_pairs(ps, iv)
        assert 0 < sum(evaluated) <= counted + len(got)
        assert sum(evaluated) < 0.6 * ps.n * (ps.n - 1) / 2

    @given(data=labeled_inputs())
    @settings(max_examples=200, deadline=None)
    def test_image_never_exceeds_4n_slots(self, data):
        points, t, alpha = data
        coords = np.array(points)
        with mock.patch.object(counting, "_LEAF_PAIRS", 1):
            walk = _walk(coords, *IntervalFamily(t, alpha).sq_bounds)
        if walk.walk == "image":
            assert int(np.diff(walk.grid.starts).max()) * walk.grid.nx * walk.grid.ny <= 4 * len(points)


# Families for _meeting, one with overlapping intervals, and every squared
# interval end of them, 1 ulp either side of it, 0 and inf as bracket ends.
_FAMILIES = [([3.0, 4.0], 1.5), ([1.0, 3.0, 10000.0], 0.1), ([1.0], 1e-12),
             ([2.0, 3.0, 5.0, 6.0], 1.0), ([2.0**400], 1.0)]
_ENDS = np.concatenate([IntervalFamily(*f).sq_bounds for f in _FAMILIES], axis=None)
_ENDS = sorted({0.0, math.inf, *_ENDS.tolist(), *np.nextafter(_ENDS, 0.0).tolist(),
                *np.nextafter(_ENDS, math.inf).tolist()})


class TestMeeting:
    @given(
        family=st.sampled_from(_FAMILIES),
        brackets=st.lists(st.lists(st.sampled_from(_ENDS) | st.floats(0.0, math.inf),
                                   min_size=2, max_size=2), min_size=1, max_size=16),
    )
    @settings(max_examples=300, deadline=None)
    # [3, 4.5] and [4, 5.5]: squared ends 9, 20.25 and 16, 30.25.
    @example(family=([3.0, 4.0], 1.5), brackets=[
        [16.0, math.inf], [20.25, 20.25], [float(np.nextafter(20.25, math.inf)), math.inf],
        [0.0, float(np.nextafter(9.0, 0.0))], [9.0, 9.0], [math.inf, math.inf]])
    def test_matches_the_per_interval_rule(self, family, brackets):
        lo2, hi2 = IntervalFamily(*family).sq_bounds
        b0, b1 = np.sort(np.array(brackets), axis=1).T
        l0, l1 = counting._meeting(b0, b1, lo2, hi2)
        for x, y, first, stop in zip(b0.tolist(), b1.tolist(), l0.tolist(), l1.tolist()):
            meets = [l for l in range(len(lo2)) if x <= hi2[l] and y >= lo2[l]]
            assert list(range(first, stop)) == meets


@st.composite
def bracket_grids(draw):
    """(side, nx, ny, n): a grid's cell side and shape, and its point count
    from 1 to 3 * nx * ny, so that the bracket's blocks of at most n offsets
    split the rows or take them all at once."""
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    side = draw(st.sampled_from([0.3, 1.0, 2.5, 7.0, 1e-3]))
    return side, nx, ny, draw(st.integers(1, 3 * nx * ny))


def _checked_offsets(side, nx, ny, n, lo2, hi2):
    """_offsets of the grid, checked against a loop over every offset of the
    half-plane and every interval, with scalar brackets."""
    grid = SimpleNamespace(side=side, nx=nx, ny=ny, order=np.empty(n))
    offsets = counting._offsets(grid, lo2, hi2)
    assert [v.dtype for v in offsets] == [np.int64] * 4
    rows = list(zip(*(v.tolist() for v in offsets)))
    got = {(a, b): list(range(l0, l1)) for a, b, l0, l1 in rows}
    assert len(got) == len(rows), "an offset appears twice"
    want = {}
    for a in range(nx):
        for b in range(0 if a == 0 else 1 - ny, ny):
            x, y = (float(v) for v in counting._sq_bracket(a, abs(b), side))
            meets = [l for l in range(len(lo2)) if x <= hi2[l] and y >= lo2[l]]
            if meets:
                want[a, b] = meets
    assert got == want
    return offsets


class TestOffsets:
    @given(grid=bracket_grids(),
           t=st.lists(st.floats(1.0, 60.0), min_size=1, max_size=4, unique=True),
           alpha=st.sampled_from([1e-12, 0.3, 1.0, 8.0]))
    @settings(max_examples=200, deadline=None)
    # No offset at all: the one cell's bracket [0, 98] lies below 60^2.
    @example(grid=(7.0, 1, 1, 1), t=[60.0], alpha=1.0)
    # In row 0 the two intervals' offsets overlap (b in [2, 4] and [3, 5]),
    # or touch ([1, 4] and [5, 5]); one row a block, or all rows at once.
    @example(grid=(1.0, 6, 6, 1), t=[3.0, 4.0], alpha=1e-12)
    @example(grid=(1.0, 6, 6, 108), t=[2.0, 6.0], alpha=1.0)
    def test_offsets_are_those_whose_bracket_meets_an_interval(self, grid, t, alpha):
        _checked_offsets(*grid, *IntervalFamily(sorted(t), alpha).sq_bounds)

    @pytest.mark.parametrize("t, alpha", [([1.0, 3.0, 10000.0], 0.1), ([1.0], 1e-12),
                                          ([2.0**400], 1.0), ([2.0**509, 2.0**510], 2.0**509)])
    def test_one_cell_grid_keeps_only_the_cell_itself(self, t, alpha):
        # A side of inf: every bracket is [0, inf], with no 0 * inf on the way.
        lo2, hi2 = IntervalFamily(t, alpha).sq_bounds
        offsets = _checked_offsets(math.inf, 1, 1, 1, lo2, hi2)
        assert [v.tolist() for v in offsets] == [[0], [0], [0], [len(t)]]


class TestGraphConstruction:
    @staticmethod
    def _graph():
        # Edges (0, 1) and (0, 3) only.
        ps = PointSet([(0.0, 0.0), (3.0, 0.0), (20.0, 0.0), (0.0, 3.0)])
        return build_graph(ps, IntervalFamily([3.0], 0.5))

    def test_missing_edge_label_raises(self):
        g = self._graph()
        assert g.has_edge(0, 1) and not g.has_edge(0, 2)
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
        # A negative id must not wrap to a point counted from the end.
        with pytest.raises(IndexError, match=f"vertex {v} out of range for n=4"):
            call(self._graph(), v)


def _peak_bytes(fn):
    """fn's result and the peak memory that tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPairOutputMemory:
    @staticmethod
    def _input():
        return random_separated(5000, 2 * math.sqrt(5000), seed=5), IntervalFamily(
            [3.0, 13.0, 45.0, 150.0, 500.0], 1.0)

    @pytest.mark.parametrize("build", [label_pairs], ids=["label_pairs"])
    def test_peak_bytes_per_pair(self, build):
        # label_pairs holds one packed sort key per pair: about 24 bytes a
        # pair at its peak here, where it takes the image pass. On the tree,
        # whose leaves are evaluated about _PAIR_CHUNK pairs at a time, it
        # also takes about 24 bytes a pair here.
        out, peak = _peak_bytes(lambda: build(*self._input()))
        assert len(out) > 150_000
        assert peak / len(out) <= 80

    def test_point_graph_peak_bytes_per_point(self):
        # The graph and the witness search hold no edge list: about 158 bytes
        # a point at their peak here, most of it the pruned count's walk. One
        # int32 per edge direction would take about 270 bytes a point.
        ps, iv = self._input()

        def search():
            g = build_graph(ps, iv)
            return g, find_tripartite(g, 3)

        (g, w), peak = _peak_bytes(search)
        assert g.edge_count > 150_000 and w is not None
        assert peak / ps.n <= 192

    def test_graph_peak_bytes_per_point_on_a_dense_grid(self):
        # A jittered grid of pitch 2 takes the image pass at one point to a
        # cell, near 4n cells, where the case above never gets: about 172
        # bytes a point at build_graph's peak here, with the offsets
        # bracketed a block of at most n at a time, and about 242 with the
        # whole grid bracketed at once.
        n, pitch = 10_000, 2.0
        rng = np.random.default_rng(0)
        g, idx = math.ceil(math.sqrt(n)), np.arange(n)
        rad = (pitch - 1.02) / 2 * np.sqrt(rng.random(n))
        ang = 2 * np.pi * rng.random(n)
        ps = PointSet(np.column_stack(((idx % g + 0.5) * pitch + rad * np.cos(ang),
                                       (idx // g + 0.5) * pitch + rad * np.sin(ang))))
        iv = IntervalFamily([3.0, 13.0, 45.0, 150.0, 500.0], 1.0)
        graph, peak = _peak_bytes(lambda: build_graph(ps, iv))
        assert graph.edge_count > 500_000
        assert peak / n <= 200
