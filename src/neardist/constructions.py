"""Deterministic generators for extremal column configurations.

Each generator checks its arguments and passes one builder, _column_output,
unit-spaced columns above a few anchor x-coordinates, an interval family
matched to the column gaps, and the vertical distances at which within-column
pairs qualify. The builder predicts the exact pair count, re-counts the output
with the pruned count and refuses to return a configuration whose count
disagrees with the prediction. The feasibility threshold on the column gap t
comes from the Pythagorean bound: a cross-column pair at horizontal gap t and
height difference h has distance sqrt(t^2 + h^2) <= t + w whenever
h^2 <= 2*t*w, so a large enough t pins every cross pair inside its width-w
interval.

random_separated produces seeded jittered-grid point sets with pairwise
distances at least 1, for property tests and as search starting states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import count_pairs
from .geometry import IntervalFamily, PointSet

__all__ = [
    "ConstructionOutput",
    "two_column",
    "three_column",
    "column_chain",
    "augmented_chain",
    "random_separated",
]


@dataclass(frozen=True)
class ConstructionOutput:
    """A generated point set, its interval family, and the exact expected count."""

    ps: PointSet
    iv: IntervalFamily
    predicted_count: int
    name: str
    params: dict


def _balanced_split(n: int, parts: int) -> list[int]:
    """Split n into the given number of parts differing by at most 1, larger first."""
    q, r = divmod(n, parts)
    return [q + 1] * r + [q] * (parts - r)


def _column_output(name: str, params: dict, anchors: list[float], sizes: list[int],
                   values: list[float], width: float, within: list[int]) -> ConstructionOutput:
    """Unit-spaced columns of sizes[mu] points from (anchors[mu], 1) up, with
    IntervalFamily(values, width). Predicts every cross-column pair plus, in
    each column, the pairs at each vertical distance in within; raises
    RuntimeError unless a pruned re-count of the output agrees."""
    # The column bases alone first, so that an anchor past the coordinate
    # limit fails before any array of n points is allocated.
    PointSet([(a, 1.0) for a in anchors])
    ys = np.concatenate([np.arange(1.0, h + 1) for h in sizes])
    ps = PointSet(np.column_stack((np.repeat(anchors, sizes), ys)))
    iv = IntervalFamily(values, width)
    cross = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1 :])
    predicted = cross + sum(max(0, h - d) for h in sizes for d in within)
    counted = count_pairs(ps, iv, method="pruned").total
    if counted != predicted:
        raise RuntimeError(f"{name} self-check failed: predicted {predicted}, counted {counted}")
    return ConstructionOutput(ps, iv, predicted, name, params)


def two_column(n: int, k: int, t: float, eps: float) -> ConstructionOutput:
    """Two columns of heights ceil(n/2) and floor(n/2) at horizontal gap t.

    Interval values are 1, 3, 9, ..., 3^(k-2) and t, all of width eps. The
    cross pairs land in [t, t + eps] and within-column pairs at vertical
    distance 3^(l-1) land exactly on the left endpoint of interval l, giving

        predicted = ceil(n/2) * floor(n/2)
                    + sum over l < k of the within-column pairs at 3^(l-1).

    Requires t >= max(3^(k-1), ceil(n/2), (ceil(n/2) - 1)^2 / (2 * eps)): the
    first term keeps the values increasing, the second keeps within-column
    distances out of [t, t + eps], the third pins cross pairs inside it.
    """
    if n < 2:
        raise ValueError(f"two-column needs n >= 2, got {n}")
    if k < 1:
        raise ValueError(f"two-column needs k >= 1, got {k}")
    if not (0.0 < eps < 1.0):
        raise ValueError(f"two-column needs 0 < eps < 1, got {eps}")
    ha = (n + 1) // 2
    hb = n // 2
    t_min = max(3.0 ** (k - 1), float(ha), (ha - 1) ** 2 / (2.0 * eps))
    if t < t_min:
        raise ValueError(
            f"two-column needs t >= {t_min} for n={n}, k={k}, eps={eps}; got {t}"
            " (cross pairs would leak out of the top interval)"
        )
    return _column_output(
        "two-column", {"n": n, "k": k, "t": float(t), "eps": float(eps)}, [0.0, float(t)],
        [ha, hb], [3.0 ** (l - 1) for l in range(1, k)] + [float(t)], eps,
        [3 ** (l - 1) for l in range(1, k)])


def three_column(n: int, t1: float, t2: float) -> ConstructionOutput:
    """Three balanced columns at x = 0, t1, t1 + t2 with unit-width intervals.

    The interval values are the distinct column gaps t1, t2, t1 + t2; the
    third value equals the sum of the first two, so the near-sum check always
    reports a violation for this family. Every cross-column pair qualifies:

        predicted = n1*n2 + n2*n3 + n1*n3,   about n^2 / 3 pairs.

    Requires t1, t2 >= (ceil(n/3) - 1)^2 / 2 + 1.
    """
    if n < 3:
        raise ValueError(f"three-column needs n >= 3, got {n}")
    h = -(-n // 3)
    t_min = (h - 1) ** 2 / 2.0 + 1.0
    if t1 < t_min or t2 < t_min:
        raise ValueError(
            f"three-column needs t1, t2 >= {t_min} for n={n}; got t1={t1}, t2={t2}"
            " (cross pairs would leak out of their unit intervals)"
        )
    return _column_output(
        "three-column", {"n": n, "t1": float(t1), "t2": float(t2)},
        [0.0, float(t1), float(t1) + float(t2)], _balanced_split(n, 3),
        sorted({float(t1), float(t2), float(t1) + float(t2)}), 1.0, [])


def column_chain(n: int, k: int, t: float) -> ConstructionOutput:
    """k + 1 balanced columns at x = 0, t, ..., k*t; intervals at t, 2t, ..., kt.

    Every cross-column pair qualifies (gap l*t falls in [l*t, l*t + 1]) and no
    within-column pair does, so

        predicted = sum over column pairs of n_mu * n_mu',
        about (n^2 / 2) * (1 - 1/(k+1)) pairs.

    Requires n >= k + 1 and t >= (ceil(n/(k+1)) - 1)^2 / 2 + 1.
    """
    if k < 1:
        raise ValueError(f"column-chain needs k >= 1, got {k}")
    if n < k + 1:
        raise ValueError(f"column-chain needs n >= k + 1, got n={n}, k={k}")
    h = -(-n // (k + 1))
    t_min = (h - 1) ** 2 / 2.0 + 1.0
    if t < t_min:
        raise ValueError(
            f"column-chain needs t >= {t_min} for n={n}, k={k}; got {t}"
            " (cross pairs would leak out of their unit intervals)"
        )
    return _column_output(
        "column-chain", {"n": n, "k": k, "t": float(t)},
        [mu * float(t) for mu in range(k + 1)], _balanced_split(n, k + 1),
        [l * float(t) for l in range(1, k + 1)], 1.0, [])


def augmented_chain(n: int, k: int, t: float) -> ConstructionOutput:
    """k balanced columns at x = t, ..., k*t; intervals at 1, t, 2t, ..., (k-1)t.

    The unit interval [1, 2] additionally catches within-column pairs at
    vertical distance 1 and 2, so

        predicted = sum over column pairs of n_mu * n_mu'
                    + sum over columns of (n_mu - 1) + (n_mu - 2) clipped at 0,
        about (n^2 / 2) * (1 - 1/k) + 2n pairs.

    Requires n >= k >= 2 and t >= max(3, (ceil(n/k) - 1)^2 / 2 + 1); the floor
    of 3 keeps [1, 2] below [t, t + 1] and cross pairs out of [1, 2].
    """
    if k < 2:
        raise ValueError(f"augmented-chain needs k >= 2, got {k}")
    if n < k:
        raise ValueError(f"augmented-chain needs n >= k, got n={n}, k={k}")
    h = -(-n // k)
    t_min = max(3.0, (h - 1) ** 2 / 2.0 + 1.0)
    if t < t_min:
        raise ValueError(
            f"augmented-chain needs t >= {t_min} for n={n}, k={k}; got {t}"
            " (cross pairs would leak out of their unit intervals)"
        )
    return _column_output(
        "augmented-chain", {"n": n, "k": k, "t": float(t)},
        [mu * float(t) for mu in range(1, k + 1)], _balanced_split(n, k),
        [1.0] + [l * float(t) for l in range(1, k)], 1.0, [1, 2])


def random_separated(n: int, box_side: float, seed: int) -> PointSet:
    """A seeded random point set with pairwise distances >= 1 inside a box.

    Points sit on a ceil(sqrt(n)) grid of pitch max(2, box_side / ceil(sqrt(n)))
    and are jittered uniformly within a disk of radius (pitch - 1) / 2, which
    keeps any two points at least pitch - (pitch - 1) = 1 apart. Deterministic
    for a fixed seed. Requires box_side >= 2 * sqrt(n).
    """
    if n < 1:
        raise ValueError(f"random-separated needs n >= 1, got {n}")
    if seed < 0:
        raise ValueError(f"random-separated needs seed >= 0, got {seed}")
    if box_side < 2.0 * math.sqrt(n):
        raise ValueError(
            f"random-separated needs box_side >= 2*sqrt(n) = {2.0 * math.sqrt(n)}, got {box_side}"
        )
    g = math.ceil(math.sqrt(n))
    pitch = max(2.0, box_side / g)
    rng = np.random.default_rng(seed)
    idx = np.arange(n)
    cx = (idx % g + 0.5) * pitch
    cy = (idx // g + 0.5) * pitch
    radius = (pitch - 1.0) / 2.0
    rad = radius * np.sqrt(rng.random(n))
    ang = rng.random(n) * (2.0 * math.pi)
    return PointSet(np.column_stack((cx + rad * np.cos(ang), cy + rad * np.sin(ang))))
