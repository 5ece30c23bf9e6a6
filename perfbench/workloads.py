"""Inputs and reference answers of the benchmark workloads.

    python3 perfbench/workloads.py gen WORK          # WORK/in/*.json and WORK/expected.json
    python3 perfbench/workloads.py check WORK OUT... # one JSON list of problems per OUT

WORK/spec.json (written by run.py) holds the workload's parameters and seed.
Inputs come from the benchmark's own numpy code, not from
`neardist.constructions`, so that a change there cannot change what is
measured. Point files are written with the standard json module.

Reference checks test membership with the package's convention, squared
distance dx*dx + dy*dy against squared closed bounds t*t and (t+alpha)^2,
written out here independently of `neardist`.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

LAYOUT_SALT = {"grid": 1, "columns": 2, "search": 3}
# Two jittered points in neighbouring grid cells stay this far apart, safely
# above the separation threshold 1 so that rounding cannot break it.
GRID_GAP = 1.02
COLUMN_SHIFT = 10**6  # integer translation range; keeps coordinates far below 2^53


def jittered_grid(n: int, rng: np.random.Generator) -> np.ndarray:
    """n points on a ceil(sqrt(n)) grid in a box of side 2*sqrt(n), jittered in disks."""
    g = math.ceil(math.sqrt(n))
    pitch = max(2.0, 2.0 * math.sqrt(n) / g)
    radius = (pitch - GRID_GAP) / 2.0
    idx = np.arange(n)
    rad = radius * np.sqrt(rng.random(n))
    ang = rng.random(n) * (2.0 * math.pi)
    cx = (idx % g + 0.5) * pitch
    cy = (idx // g + 0.5) * pitch
    return np.column_stack((cx + rad * np.cos(ang), cy + rad * np.sin(ang)))


def columns_params(n: int, k: int, eps: float) -> tuple[int, int, int, list[float]]:
    """Heights, integer column gap t = 2 * t_min, and interval values 1, 3, ..., 3^(k-2), t.

    t_min = max(3^(k-1), ceil(n/2), (ceil(n/2) - 1)^2 / (2 eps)) pins every
    cross-column pair inside [t, t + eps].
    """
    ha, hb = (n + 1) // 2, n // 2
    t = 2 * math.ceil(max(3.0 ** (k - 1), float(ha), (ha - 1) ** 2 / (2.0 * eps)))
    return ha, hb, t, [3.0 ** l for l in range(k - 1)] + [float(t)]


def two_columns(n: int, k: int, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-spaced columns of heights ceil(n/2), floor(n/2) at gap t.

    Translated by a seeded integer offset and shuffled by seed; integer
    coordinates keep every dx and dy exact.
    """
    ha, hb, t, _ = columns_params(n, k, eps)
    xy = np.concatenate((
        np.column_stack((np.zeros(ha), np.arange(1, ha + 1, dtype=np.float64))),
        np.column_stack((np.full(hb, float(t)), np.arange(1, hb + 1, dtype=np.float64))),
    ))
    xy += rng.integers(-COLUMN_SHIFT, COLUMN_SHIFT, size=2).astype(np.float64)
    return xy[rng.permutation(n)]


def columns_expected(n: int, k: int, eps: float) -> dict:
    """Closed-form verify answer of the two-column layout.

    Cross pairs land in the top interval; within-column pairs at vertical
    distance 3^(l-1) sit on the left endpoint of interval l.
    """
    ha, hb, t, _ = columns_params(n, k, eps)
    per = [max(0, ha - 3**l) + max(0, hb - 3**l) for l in range(k - 1)] + [ha * hb]
    return {
        "total": sum(per),
        "per_interval": per,
        "min_distance": 1.0,
        "diameter": math.sqrt(float(t) * float(t) + float(ha - 1) * float(ha - 1)),
    }


def sq_bounds(t: list[float], alpha: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.array(t, dtype=np.float64)
    hi = lo + alpha
    return lo * lo, hi * hi


def smallest_labels(d2: np.ndarray, lo2: np.ndarray, hi2: np.ndarray) -> np.ndarray:
    """1-based smallest interval containing each squared distance; 0 for none."""
    labels = np.zeros(d2.shape, dtype=np.int64)
    for l in range(len(lo2) - 1, -1, -1):
        labels[(d2 >= lo2[l]) & (d2 <= hi2[l])] = l + 1
    return labels


def extreme_distances(xy: np.ndarray, block: int = 512) -> tuple[float, float]:
    """Minimum and maximum pairwise distance by a blocked all-pairs scan."""
    x, y = xy[:, 0], xy[:, 1]
    lo, hi = math.inf, 0.0
    for i0 in range(0, len(x) - 1, block):
        i1 = min(i0 + block, len(x))
        dx = x[i0:i1, None] - x[None, i0 + 1:]
        dy = y[i0:i1, None] - y[None, i0 + 1:]
        d2 = dx * dx + dy * dy
        rows = np.arange(i0, i1)[:, None]
        upper = np.arange(i0 + 1, len(x))[None, :] > rows
        lo = min(lo, float(d2[upper].min()))
        hi = max(hi, float(d2[upper].max()))
    return math.sqrt(lo), math.sqrt(hi)


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")


def load_xy(path: Path) -> np.ndarray:
    return np.array(json.loads(path.read_text(encoding="utf-8"))["points"], dtype=np.float64)


def generate(work: Path) -> None:
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    layout = spec.get("layout", "search")
    rng = np.random.default_rng([spec["seed"], LAYOUT_SALT[layout], spec["n"]])
    (work / "in").mkdir()
    expected: dict = {}
    if layout == "columns":
        _, _, _, t = columns_params(spec["n"], spec["k"], spec["eps"])
        iv = {"alpha": spec["eps"], "t": t}
        xy = two_columns(spec["n"], spec["k"], spec["eps"], rng)
        expected = columns_expected(spec["n"], spec["k"], spec["eps"])
    else:
        iv = {"alpha": spec["alpha"], "t": spec["t"]}
        xy = jittered_grid(spec["n"], rng) if layout == "grid" else None
    write_json(work / "in" / "intervals.json", iv)
    if xy is not None:
        write_json(work / "in" / "points.json", {"dim": 2, "points": xy.tolist()})
    if layout == "grid":
        from neardist import IntervalFamily, PointSet, count_pairs

        brute = count_pairs(PointSet(xy), IntervalFamily(iv["t"], iv["alpha"]), method="brute")
        expected = {"total": brute.total, "per_interval": list(brute.per_interval)}
        if spec["command"] == "verify":
            expected["min_distance"], expected["diameter"] = extreme_distances(xy)
    write_json(work / "expected.json", expected)


def check_verify(out: Path, expected: dict) -> list[str]:
    got = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    problems = []
    for key, value in (("total", expected["total"]), ("per_interval", expected["per_interval"])):
        if got["count"][key] != value:
            problems.append(f"count.{key} {got['count'][key]} != {value}")
    for key in ("min_distance", "diameter"):
        if got[key] != expected[key]:
            problems.append(f"{key} {got[key]!r} != {expected[key]!r}")
    return problems


def expected_refinement(x: int, B: list[int], D: list[int], m: int, label) -> dict | None:
    """The label-constant refinement that `analyze` must report for a witness.

    B and D are each cut to their largest class by label to x (ties to the
    smaller label); then the lexicographically least m-subsets B2, D2 whose
    B2-D2 pairs share one label, or None when there are none.
    """
    def largest_class(members: list[int]) -> tuple[int, list[int]]:
        classes: dict[int, list[int]] = {}
        for v in members:
            classes.setdefault(label(x, v), []).append(v)
        best = min(classes, key=lambda l: (-len(classes[l]), l))
        return best, sorted(classes[best])

    label_xb, b_pool = largest_class(B)
    label_xd, d_pool = largest_class(D)
    for B2 in combinations(b_pool, m):
        for D2 in combinations(d_pool, m):
            labels = {label(y, z) for y in B2 for z in D2}
            if len(labels) == 1:
                return {"B2": list(B2), "D2": list(D2),
                        "labels": {"x_b": label_xb, "x_d": label_xd, "b_d": labels.pop()}}
    return None


def check_analyze(out: Path, spec: dict, expected: dict, xy: np.ndarray) -> list[str]:
    """The witness is a K(1, s, s) of qualifying pairs, refined as homogenize defines."""
    got = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    problems = []
    if got["edges"] != expected["total"]:
        problems.append(f"edges {got['edges']} != {expected['total']}")
    w = got["witness"]
    if w is None:
        return problems + ["no witness"]
    lo2, hi2 = sq_bounds(spec["t"], spec["alpha"])

    def label(a: int, b: int) -> int:
        dx, dy = xy[a] - xy[b]
        return int(smallest_labels(np.array([dx * dx + dy * dy]), lo2, hi2)[0])

    x, B, D = w["x"], w["B"], w["D"]
    if len(B) != spec["s"] or len(D) != spec["s"] or len({x, *B, *D}) != 2 * spec["s"] + 1:
        problems.append(f"witness parts are not disjoint s-sets: {w}")
    pairs = [(x, b) for b in B] + [(x, d) for d in D] + [(b, d) for b in B for d in D]
    if not all(label(a, b) for a, b in pairs):
        problems.append("a witness pair does not qualify")
    refined = expected_refinement(x, B, D, spec["m"], label)
    got_refined = {key: w[key] for key in ("B2", "D2", "labels")}
    if refined is None and got_refined != {"B2": None, "D2": None, "labels": None}:
        problems.append(f"refinement {got_refined} reported where none exists")
    elif refined is not None and got_refined != refined:
        problems.append(f"refinement {got_refined} != {refined}")
    return problems


def check_search(out: Path, spec: dict) -> list[str]:
    """An independent recount of best_points.json equals its best_count."""
    xy = load_xy(out / "best_points.json")
    got = json.loads((out / "search.json").read_text(encoding="utf-8"))
    iu, ju = np.triu_indices(len(xy), 1)
    d = xy[iu] - xy[ju]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    lo2, hi2 = sq_bounds(spec["t"], spec["alpha"])
    problems = []
    if len(xy) != spec["n"]:
        problems.append(f"{len(xy)} points, expected {spec['n']}")
    if len(d2) and d2.min() < 1.0:
        problems.append("best points are not separated")
    recount = int(np.count_nonzero(smallest_labels(d2, lo2, hi2)))
    if recount != got["best_count"]:
        problems.append(f"best_count {got['best_count']} != recount {recount}")
    return problems


def check(work: Path, outs: list[str]) -> list[list[str]]:
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))
    xy = load_xy(work / "in" / "points.json") if spec["command"] == "analyze" else None
    verdicts = []
    for out in outs:
        try:
            if spec["command"] == "verify":
                verdicts.append(check_verify(work / out, expected))
            elif spec["command"] == "analyze":
                verdicts.append(check_analyze(work / out, spec, expected, xy))
            else:
                verdicts.append(check_search(work / out, spec))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            verdicts.append([f"unreadable output: {exc!r}"])
    return verdicts


def main(argv: list[str]) -> int:
    if argv[:1] == ["gen"] and len(argv) == 2:
        generate(Path(argv[1]))
    elif argv[:1] == ["check"] and len(argv) >= 3:
        print(json.dumps(check(Path(argv[1]), argv[2:])))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
