"""Qualifying-pair graphs, complete-tripartite witnesses, and angle diagnostics.

The graph on a point set has an edge for every pair whose distance falls in
the interval family, labeled with the smallest qualifying interval index.
NearEqualGraph holds no edge: it takes the degrees from one walk of the
pruned count and reads a hub's neighbourhood, the edges inside it and single
labels from the points when asked, in O(n) memory beside one hub's edges.
Witness extraction looks for a K(1, s, s): a hub x and two disjoint s-sets
B, D with every x-B, x-D and B-D edge present; it reads only each tried
hub's neighbourhood and the edges inside it. Homogenization refines a
witness to subsets on which each of the three edge classes carries a single
label, and reads only the witness's own labels. Both searches are explicit
and deterministic; they are meant for small witnesses (roughly s <= 4) and
degrade to exponential enumeration in s and in the degree of dense
neighbourhoods beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

# label_pairs is unused here; perfbench/traced.py wraps graphs.label_pairs by name.
from .counting import _visit_hits, label_pairs
from .geometry import IntervalFamily, PointSet, _label_hits, _run_pairs, _sq_dists

__all__ = [
    "NearEqualGraph",
    "build_graph",
    "TripartiteWitness",
    "find_tripartite",
    "HomogeneousWitness",
    "homogenize",
    "TriangleCase",
    "classify_label_triple",
    "TriangleAngleBounds",
    "triangle_angle_bounds",
    "TriangleAngleReport",
    "angle_diagnostic",
]

# A triangle counts as degenerate when its area is below this fraction of the
# squared longest side.
_DEGENERATE_AREA_RATIO = 1e-9


class NearEqualGraph:
    """The qualifying-pair graph of a point set, with smallest-interval edge
    labels (1-based), read from the points.

    Holds no edge: the degrees come from one walk of the pruned count
    (counting._visit_hits), which drops the node pairs with no qualifying
    pair and evaluates the rest, as label_pairs does. A hub's
    neighbourhood N(x) comes from one pass of x against every point, and the
    edges inside it from its deg * (deg - 1) / 2 pairs, _PAIR_CHUNK at a time;
    has_edge(i, j) and label(i, j) evaluate their one pair. Every pair is
    evaluated with the walk's dx*dx + dy*dy and _label_hits, and
    fl(a - b) = -fl(b - a), so degrees, edges and labels equal label_pairs'
    bit for bit, in O(n) memory beside a hub's edges. Vertex ids outside
    0..n-1 raise IndexError.
    """

    __slots__ = ("n", "edge_count", "_degrees", "_xs", "_ys", "_lo2", "_hi2")

    def __init__(self, ps: PointSet, iv: IntervalFamily):
        coords = ps.coords
        self.n = n = ps.n
        self._xs, self._ys = coords.T
        self._lo2, self._hi2 = lo2, hi2 = iv.sq_bounds
        degrees = np.zeros(n, dtype=np.int64)

        def add(l, hit, i, j):
            for ends in (i, j):
                np.add.at(degrees, np.broadcast_to(ends, hit.shape)[hit], 1)

        _visit_hits(coords, lo2, hi2, add, np.empty(0, dtype=np.int64))
        self._degrees = degrees
        self.edge_count = int(degrees.sum()) // 2

    def _labels(self, i, j) -> np.ndarray:
        """1-based smallest labels of the pairs (i, j), 0 where none qualifies."""
        d2 = _sq_dists(self._xs, self._ys, i, j)
        labels = np.zeros(np.shape(d2), dtype=np.int64)
        for l, hit in _label_hits(d2, self._lo2, self._hi2):
            labels[hit] = l + 1
        return labels

    def _check(self, *ids: int) -> None:
        for v in ids:
            if not 0 <= v < self.n:
                raise IndexError(f"vertex {v} out of range for n={self.n}")

    def _row(self, x: int) -> np.ndarray:
        """N(x), sorted."""
        # x itself is no neighbour: its d2 of 0 lies in no interval (t >= 1).
        return np.flatnonzero(self._labels(x, np.arange(self.n)))

    def _hub(self, x: int):
        """N(x), sorted, and the edges inside it as id arrays (u, v), u < v."""
        nbrs = self._row(x)
        pos = np.arange(len(nbrs) - 1)
        u, v = [nbrs[:0]], [nbrs[:0]]
        for i, j in _run_pairs(nbrs, pos, pos + 1, len(nbrs) - 1 - pos):
            keep = self._labels(i, j) > 0
            u.append(i[keep])
            v.append(j[keep])
        return nbrs, np.concatenate(u), np.concatenate(v)

    def _pair(self, i: int, j: int) -> int:
        """The label of the pair (i, j), 0 where it is no edge."""
        self._check(i, j)
        return int(self._labels(i, j))

    def has_edge(self, i: int, j: int) -> bool:
        return self._pair(i, j) > 0

    def label(self, i: int, j: int) -> int:
        label = self._pair(i, j)
        if not label:
            raise KeyError((i, j))
        return label

    def neighbors(self, x: int) -> frozenset[int]:
        self._check(x)
        return frozenset(self._row(x).tolist())

    def __repr__(self) -> str:
        return f"NearEqualGraph(n={self.n}, edges={self.edge_count})"


def build_graph(ps: PointSet, iv: IntervalFamily) -> NearEqualGraph:
    """The qualifying-pair graph of ps; its edge count equals the pair count."""
    return NearEqualGraph(ps, iv)


@dataclass(frozen=True)
class TripartiteWitness:
    """A K(1, s, s) subgraph: hub x plus disjoint s-sets B and D.

    All edges x-b, x-d and b-d are present; edges inside B or D are not
    required.
    """

    x: int
    B: tuple[int, ...]
    D: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.B)


def _find_bipartite_in(adj, cand: list[int], s: int) -> tuple[list[int], list[int]] | None:
    """Lexicographically least complete bipartite (B, D) with parts of size s
    inside the candidate list, where every B-D pair must be adjacent; adj(v)
    is the neighbour set of v."""
    cand_set = set(cand)

    def extend(chosen: list[int], start: int, common: set[int]):
        if len(chosen) == s:
            avail = sorted(common.difference(chosen))
            if len(avail) >= s:
                return chosen, avail[:s]
            return None
        need = s - len(chosen)
        for idx in range(start, len(cand) - need + 1):
            v = cand[idx]
            new_common = common & adj(v)
            # D needs s vertices of the final common set outside B; the set
            # only shrinks as B grows, so this bound is safe to prune on.
            if len(new_common.difference(chosen, (v,))) < s:
                continue
            result = extend(chosen + [v], idx + 1, new_common)
            if result is not None:
                return result
        return None

    return extend([], 0, cand_set)


def find_tripartite(g: NearEqualGraph, s: int) -> TripartiteWitness | None:
    """Search for a K(1, s, s) witness; None when the graph contains none.

    Deterministic: returns the least witness under lexicographic order of
    (x, sorted B, sorted D). Exhaustive over hubs of degree at least 2s,
    branch and bound inside each hub's neighborhood. The search reads a
    graph's degrees and, per hub x tried, N(x) with the edges inside it, the
    only edges it can use: every set it intersects is a subset of N(x). A hub
    read costs O(n + deg(x)**2) time and O(n + edges in N(x)) memory.
    """
    if s < 1:
        raise ValueError(f"witness part size must be >= 1, got {s}")
    for x in np.flatnonzero(g._degrees >= 2 * s).tolist():
        nbrs, u, v = g._hub(x)
        adj = {w: set() for w in nbrs.tolist()}
        for a, b in zip(u.tolist(), v.tolist()):
            adj[a].add(b)
            adj[b].add(a)
        found = _find_bipartite_in(adj.__getitem__, list(adj), s)
        if found is not None:
            B, D = found
            return TripartiteWitness(x=x, B=tuple(B), D=tuple(D))
    return None


@dataclass(frozen=True)
class HomogeneousWitness:
    """A label-constant refinement of a tripartite witness.

    Every x-B2 edge carries label_xb, every x-D2 edge label_xd, and every
    B2-D2 edge label_bd.
    """

    base: TripartiteWitness
    B2: tuple[int, ...]
    D2: tuple[int, ...]
    label_xb: int
    label_xd: int
    label_bd: int

    @property
    def m(self) -> int:
        return len(self.B2)


def _largest_label_class(
    g: NearEqualGraph, x: int, members: tuple[int, ...]
) -> tuple[int, list[int]]:
    """Partition members by their edge label to x; largest class wins, ties to
    the smaller label."""
    classes: dict[int, list[int]] = {}
    for v in members:
        classes.setdefault(g.label(x, v), []).append(v)
    label = min(classes, key=lambda l: (-len(classes[l]), l))
    return label, sorted(classes[label])


def homogenize(g: NearEqualGraph, w: TripartiteWitness, m: int) -> HomogeneousWitness | None:
    """Refine a witness to m-subsets with one label per edge class, or None.

    B is first restricted to its largest x-label class (ties to the smaller
    label), D likewise; the B-D class is then made constant by exhaustive
    search over m-subsets, returning the lexicographically least solution.
    """
    if not (1 <= m <= w.s):
        raise ValueError(f"m must lie in [1, s] = [1, {w.s}], got {m}")
    label_xb, b_pool = _largest_label_class(g, w.x, w.B)
    label_xd, d_pool = _largest_label_class(g, w.x, w.D)
    if len(b_pool) < m or len(d_pool) < m:
        return None
    for B2 in combinations(b_pool, m):
        for D2 in combinations(d_pool, m):
            labels = {g.label(y, z) for y in B2 for z in D2}
            if len(labels) == 1:
                return HomogeneousWitness(
                    base=w,
                    B2=B2,
                    D2=D2,
                    label_xb=label_xb,
                    label_xd=label_xd,
                    label_bd=labels.pop(),
                )
    return None


class TriangleCase(Enum):
    """Classification of a triangle's three edge labels after sorting.

    UNIQUE_MAX: the largest label is carried by exactly one side.
    TIED_MAX: the two largest labels coincide.
    """

    UNIQUE_MAX = "unique_max"
    TIED_MAX = "tied_max"


def classify_label_triple(l_a: int, l_b: int, l_c: int) -> TriangleCase:
    """Sort the three labels and report whether the maximum is unique.

    Total and invariant under permutations of the arguments.
    """
    l1, l2, l3 = sorted((l_a, l_b, l_c))
    return TriangleCase.UNIQUE_MAX if l2 < l3 else TriangleCase.TIED_MAX


@dataclass(frozen=True)
class TriangleAngleBounds:
    """Angle bounds implied by the near-sum margin delta.

    min_angle = 2 * arcsin(delta / (4 - 2*delta)) bounds the two smaller
    angles of a unique-max triangle from below; the largest angle stays below
    pi - max_angle_margin with max_angle_margin = 2 * min_angle. For small
    delta, min_angle behaves like delta / 2.
    """

    delta: float
    min_angle: float
    max_angle_margin: float


def triangle_angle_bounds(delta: float) -> TriangleAngleBounds:
    """Compute the angle bounds for a given delta in (0, 1)."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    min_angle = 2.0 * math.asin(delta / (4.0 - 2.0 * delta))
    return TriangleAngleBounds(
        delta=delta, min_angle=min_angle, max_angle_margin=2.0 * min_angle
    )


@dataclass(frozen=True)
class TriangleAngleReport:
    """Angle check of one unique-max triangle against the delta bounds.

    A diagnostic, not an assertion: the bounds are only guaranteed for
    sufficiently large distance values, so a violation is reported, never
    raised.
    """

    ids: tuple[int, int, int]
    side_lengths: tuple[float, float, float]
    labels: tuple[int, int, int]
    degenerate: bool
    angles: tuple[float, float, float] | None
    bounds: TriangleAngleBounds
    min_angle_ok: bool | None
    max_angle_ok: bool | None


def angle_diagnostic(
    ps: PointSet, ids: tuple[int, int, int], iv: IntervalFamily, delta: float
) -> TriangleAngleReport:
    """Check a qualifying unique-max triangle's angles against the delta bounds.

    The ids must lie in [0, n), or IndexError, and the three pairs must all
    qualify for some interval with labels that classify as UNIQUE_MAX, or
    ValueError. Collinear triangles are reported as degenerate with no angles.
    """
    i, j, k = ids
    if len({i, j, k}) != 3:
        raise ValueError(f"triangle ids must be distinct, got {ids}")
    for v in ids:
        if not 0 <= v < ps.n:
            raise IndexError(f"vertex {v} out of range for n={ps.n}")
    coords = ps.coords
    ends = np.array([i, j, k])
    sq = _sq_dists(coords[:, 0], coords[:, 1], ends, np.roll(ends, -1)).tolist()
    labels = [iv.smallest_label(d2) for d2 in sq]
    for (a, b), label in zip(((i, j), (j, k), (k, i)), labels):
        if label is None:
            raise ValueError(f"pair ({a}, {b}) does not qualify for any interval")
    case = classify_label_triple(*labels)
    if case is not TriangleCase.UNIQUE_MAX:
        raise ValueError(f"triangle labels {tuple(labels)} have a tied maximum")
    sides = tuple(math.sqrt(v) for v in sq)
    bounds = triangle_angle_bounds(delta)

    ax, ay = coords[i]
    bx, by = coords[j]
    cx, cy = coords[k]
    area = abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay)) / 2.0
    degenerate = bool(area < _DEGENERATE_AREA_RATIO * max(sq))

    # Law of cosines; angle at the vertex opposite each listed side.
    def angle(opp: float, s1: float, s2: float) -> float:
        c = (s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)
        return math.acos(min(1.0, max(-1.0, c)))

    a_ij, a_jk, a_ki = sides
    angles = None
    if not degenerate:
        angles = (angle(a_jk, a_ij, a_ki), angle(a_ki, a_ij, a_jk), angle(a_ij, a_jk, a_ki))
    return TriangleAngleReport(
        ids=ids,
        side_lengths=sides,
        labels=tuple(labels),
        degenerate=degenerate,
        angles=angles,
        bounds=bounds,
        min_angle_ok=None if degenerate else min(angles) >= bounds.min_angle,
        max_angle_ok=None if degenerate else max(angles) <= math.pi - bounds.max_angle_margin,
    )
