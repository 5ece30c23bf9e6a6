"""Qualifying-pair graphs, complete-tripartite witnesses, and angle diagnostics.

The graph on a point set has an edge for every pair whose distance falls in
the interval family, labeled with the smallest qualifying interval index.
The graph is stored as CSR arrays, built from label_pairs' arrays by one
stable sort of both edge directions by row, about 90 bytes per edge. Witness
extraction looks for a K(1, s, s): a hub vertex x and two disjoint s-sets B,
D with every x-B, x-D and B-D edge present. Homogenization refines a witness to
subsets on which each of the three edge classes carries a single label. Both
searches are explicit and deterministic; they are meant for small witnesses
(roughly s <= 4) and degrade to exponential enumeration in s and in the
degree of dense neighbourhoods beyond that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .counting import label_pairs
from .geometry import IntervalFamily, PointSet, _sq_dists

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
    """Graph of qualifying pairs with smallest-interval edge labels (1-based).

    Stored as CSR with every edge in both directions: the neighbours of v are
    indices[indptr[v]:indptr[v + 1]], in increasing order, and labels holds
    the edge labels alongside. Built from parallel edge arrays (i, j, label)
    with i != j, each unordered edge at most once.
    """

    __slots__ = ("n", "indptr", "indices", "labels")

    def __init__(self, n: int, i, j, labels):
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if not len(i) == len(j) == len(labels):
            raise ValueError("edge arrays i, j and labels must have one length")
        bad = (i < 0) | (i >= n) | (j < 0) | (j >= n) | (i == j)
        if bad.any():
            e = int(np.argmax(bad))
            raise ValueError(f"edge ({i[e]}, {j[e]}) out of range for n={n}")
        # Each edge enters as the two directed keys i*n + j and j*n + i: one
        # sort puts the rows in order with each row's neighbours increasing.
        key = np.concatenate((i * n + j, j * n + i))
        by = np.argsort(key)
        key = key[by]
        if (key[1:] == key[:-1]).any():
            raise ValueError("each edge may be given only once")
        rows, self.indices = divmod(key, n)
        del key
        self.n = n
        self.indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
        del rows
        self.labels = np.concatenate((labels, labels))[by]

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def _row(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for n={self.n}")
        return self.indptr[v], self.indptr[v + 1]

    def _slot(self, i: int, j: int) -> int | None:
        start, stop = self._row(i)
        self._row(j)  # j must be a vertex as well
        at = start + int(np.searchsorted(self.indices[start:stop], j))
        return at if at < stop and self.indices[at] == j else None

    def has_edge(self, i: int, j: int) -> bool:
        return self._slot(i, j) is not None

    def label(self, i: int, j: int) -> int:
        at = self._slot(i, j)
        if at is None:
            raise KeyError((i, j))
        return int(self.labels[at])

    def neighbors(self, i: int) -> frozenset[int]:
        start, stop = self._row(i)
        return frozenset(self.indices[start:stop].tolist())

    def __repr__(self) -> str:
        return f"NearEqualGraph(n={self.n}, edges={self.edge_count})"


def build_graph(ps: PointSet, iv: IntervalFamily) -> NearEqualGraph:
    """Build the qualifying-pair graph; edge count equals the pair count."""
    pairs = label_pairs(ps, iv)
    return NearEqualGraph(ps.n, pairs.i, pairs.j, pairs.label)


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
    branch and bound inside each hub's neighborhood. Neighbour sets are built
    only for the vertices the search reaches.
    """
    if s < 1:
        raise ValueError(f"witness part size must be >= 1, got {s}")
    adj = functools.cache(g.neighbors)
    for x in np.flatnonzero(np.diff(g.indptr) >= 2 * s).tolist():
        nbrs = g.indices[g.indptr[x]:g.indptr[x + 1]].tolist()
        found = _find_bipartite_in(adj, nbrs, s)
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


def _largest_label_class(g: NearEqualGraph, x: int, members: tuple[int, ...]) -> tuple[int, list[int]]:
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

    The three pairs must all qualify for some interval and their labels must
    classify as UNIQUE_MAX; otherwise ValueError. Collinear triangles are
    reported as degenerate with no angles.
    """
    i, j, k = ids
    if len({i, j, k}) != 3:
        raise ValueError(f"triangle ids must be distinct, got {ids}")
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
