"""Independent brute-force oracles used to pin expected values in tests.

These deliberately avoid the package's vectorized code paths: plain Python
loops over itertools.combinations, with the same squared-distance membership
convention (dx*dx + dy*dy against squared bounds) so endpoint behavior is
comparable bit for bit.
"""

from itertools import combinations
import math

import numpy as np


def _sq_dist(a, b):
    # x * x, not x ** 2: pow(x, 2) is not correctly rounded on every libm.
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def oracle_label(d2, t_values, alpha):
    """1-based smallest label of one squared distance, or None, pure Python."""
    for l, t in enumerate(t_values, start=1):
        if t * t <= d2 <= (t + alpha) * (t + alpha):
            return l
    return None


def oracle_count(points, t_values, alpha):
    """(total, per_interval) by smallest qualifying index, pure Python."""
    per = [0] * len(t_values)
    for i, j in combinations(range(len(points)), 2):
        l = oracle_label(_sq_dist(points[i], points[j]), t_values, alpha)
        if l is not None:
            per[l - 1] += 1
    return sum(per), per


def oracle_labels(points, t_values, alpha):
    """Sorted (i, j, l) triples with 1-based smallest labels, pure Python."""
    out = []
    for i, j in combinations(range(len(points)), 2):
        l = oracle_label(_sq_dist(points[i], points[j]), t_values, alpha)
        if l is not None:
            out.append((i, j, l))
    return out


class OracleGraph:
    """The graph of (i, j, label) triples as a dict of neighbour-to-label dicts.

    It has what find_tripartite and homogenize read (n, edge_count, _degrees,
    _hub, label) and what the validators read (has_edge, neighbors), built
    with plain Python loops, so a package graph can be held to it.
    """

    def __init__(self, n, triples):
        self.n = n
        self.adj = {v: {} for v in range(n)}
        for i, j, l in triples:
            self.adj[i][j] = self.adj[j][i] = l
        self._degrees = np.array([len(self.adj[v]) for v in range(n)], dtype=np.int64)
        self.edge_count = sum(len(row) for row in self.adj.values()) // 2

    def _hub(self, x):
        nbrs = sorted(self.adj[x])
        inside = set(nbrs)
        edges = [(u, v) for u in nbrs for v in self.adj[u] if u < v and v in inside]
        u, v = zip(*edges) if edges else ((), ())
        return tuple(np.array(ids, dtype=np.int64) for ids in (nbrs, u, v))

    def has_edge(self, i, j):
        return j in self.adj[i]

    def neighbors(self, i):
        return frozenset(self.adj[i])

    def label(self, i, j):
        return self.adj[i][j]


def oracle_min_distance(points):
    if len(points) < 2:
        return math.inf
    return math.sqrt(min(_sq_dist(a, b) for a, b in combinations(points, 2)))


def oracle_diameter(points):
    if len(points) < 2:
        return 0.0
    return math.sqrt(max(_sq_dist(a, b) for a, b in combinations(points, 2)))


def oracle_violations(t_values, alpha, delta):
    """All (l1, l2, l3) with t_l3 inside the closed near-sum window, 1-based."""
    k = len(t_values)
    found = []
    for l1 in range(1, k + 1):
        for l2 in range(l1, k + 1):
            for l3 in range(l2 + 1, k + 1):
                s = t_values[l1 - 1] + t_values[l2 - 1]
                if (1 - delta) * s <= t_values[l3 - 1] <= s + 2 * alpha:
                    found.append((l1, l2, l3))
    return found


def oracle_tripartite_exists(graph, s):
    """Exhaustive K(1, s, s) existence check over all (x, B, D) choices."""
    for x in range(graph.n):
        nbrs = sorted(graph.neighbors(x))
        for B in combinations(nbrs, s):
            rest = [v for v in nbrs if v not in B]
            for D in combinations(rest, s):
                if all(graph.has_edge(b, d) for b in B for d in D):
                    return True
    return False


def validate_tripartite(graph, witness):
    """Re-test the s*s + 2s required edges and the disjointness constraints."""
    members = (witness.x,) + witness.B + witness.D
    if len(set(members)) != len(members):
        return False
    if len(witness.B) != len(witness.D):
        return False
    for v in witness.B + witness.D:
        if not graph.has_edge(witness.x, v):
            return False
    return all(graph.has_edge(b, d) for b in witness.B for d in witness.D)


def validate_homogeneous(graph, refined):
    """Re-validate label constancy of a homogeneous witness against the graph."""
    w = refined.base
    if not set(refined.B2) <= set(w.B) or not set(refined.D2) <= set(w.D):
        return False
    if len(refined.B2) != len(refined.D2):
        return False
    for y in refined.B2:
        if graph.label(w.x, y) != refined.label_xb:
            return False
    for z in refined.D2:
        if graph.label(w.x, z) != refined.label_xd:
            return False
    return all(
        graph.label(y, z) == refined.label_bd for y in refined.B2 for z in refined.D2
    )
