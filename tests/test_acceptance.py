"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible under pytest -s). Criterion 9's
seed-success ratio is a soft gate: the measured ratio is printed and recorded
but does not fail the suite; its hard sub-checks (recount consistency,
zero-iteration behavior) do.
"""

import json
import math
import time

import mpmath
import pytest

from neardist import (
    IntervalFamily,
    PointSet,
    SearchConfig,
    TripartiteWitness,
    anneal,
    augmented_chain,
    build_graph,
    check_hypothesis,
    column_chain,
    count_pairs,
    find_tripartite,
    homogenize,
    random_separated,
    three_column,
    triangle_angle_bounds,
    two_column,
)

from conftest import run_cli
from _oracles import oracle_count, oracle_tripartite_exists, validate_homogeneous, validate_tripartite


def _gate(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _soft_gate(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'SOFT-FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def _best_time(fn, repeats=5):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_01_grid_oracle():
    grid = PointSet([(float(x), float(y)) for x in range(3) for y in range(3)])
    iv = IntervalFamily([1.0], 1.0)
    brute = count_pairs(grid, iv, "brute")
    pruned = count_pairs(grid, iv, "pruned")
    counts_ok = brute.total == pruned.total == 26
    t_brute = _best_time(lambda: count_pairs(grid, iv, "brute"))
    t_pruned = _best_time(lambda: count_pairs(grid, iv, "pruned"))
    timing_ok = t_brute < 0.010 and t_pruned < 0.010
    _gate(
        "criterion 1: grid counts 26, brute equals pruned, under 10 ms",
        counts_ok and timing_ok,
        f"brute={brute.total} pruned={pruned.total} "
        f"t_brute={t_brute * 1000:.2f}ms t_pruned={t_pruned * 1000:.2f}ms",
    )


def test_criterion_02_two_column_sharpness():
    small = two_column(20, 2, 500, 0.1)
    large = two_column(100, 2, 12500, 0.1)

    start = time.perf_counter()
    small_count = count_pairs(small.ps, small.iv, "brute").total
    large_count = count_pairs(large.ps, large.iv, "brute").total
    elapsed = time.perf_counter() - start

    small_ok = small_count == 118 == 20 * 20 // 4 + 20 - 2
    large_ok = large_count == 2598 == 2500 + 98
    hyp_ok = (
        check_hypothesis(small.iv, 0.2).holds and check_hypothesis(large.iv, 0.2).holds
    )
    _gate(
        "criterion 2: two-column counts 118 and 2598, near-sum check holds",
        small_ok and large_ok and hyp_ok and elapsed < 1.0,
        f"counts=({small_count}, {large_count}) brute_time={elapsed:.3f}s",
    )


def test_criterion_03_three_column_exceeds_bound():
    built = three_column(30, 2000, 2000)
    count = count_pairs(built.ps, built.iv, "brute").total
    count_ok = count == 300 == 30 * 30 // 3
    bound_ok = count > 30 * 30 / 4 + 2 * 30 == 285
    violations_ok = True
    for delta in (0.1, 0.5, 0.9):
        report = check_hypothesis(built.iv, delta)
        sum_hit = any(
            built.iv.t[v.l3 - 1] == built.iv.t[v.l1 - 1] + built.iv.t[v.l2 - 1]
            for v in report.violations
        )
        violations_ok = violations_ok and not report.holds and sum_hit
    _gate(
        "criterion 3: three-column counts 300, exceeds 285, sum triple flagged",
        count_ok and bound_ok and violations_ok,
        f"count={count}",
    )


def test_criterion_04_chain_constructions():
    chain = column_chain(30, 2, 2000)
    augmented = augmented_chain(30, 3, 2000)
    chain_count = count_pairs(chain.ps, chain.iv, "brute").total
    aug_count = count_pairs(augmented.ps, augmented.iv, "brute").total
    ok = (
        chain_count == chain.predicted_count == 300 == (30 * 30 // 2) * 2 // 3
        and aug_count == augmented.predicted_count == 351 == 300 + 2 * 30 - 9
    )
    _gate(
        "criterion 4: chain constructions count 300 and 351, match predictions",
        ok,
        f"counts=({chain_count}, {aug_count})",
    )


def _acceptance_families():
    bases = [1.0, 1.4, 2.0, 3.3, 5.0]
    families = []
    for i in range(20):
        k = i % 5 + 1
        alpha = 0.1 if i % 2 == 0 else 1.0
        values = []
        value = bases[i % 5]
        for _ in range(k):
            values.append(value)
            value = value * 3.3 + 2.0
        families.append(IntervalFamily(values, alpha))
    return families


def test_criterion_05_equivalence_and_speed():
    families = _acceptance_families()
    mismatches = 0
    for i in range(100):
        n = 50 + (450 * i) // 99
        ps = random_separated(n, 2.0 * math.sqrt(n) * (1.0 + (i % 4) * 0.3), seed=1000 + i)
        for j in (i % 20, (i * 7 + 3) % 20):
            iv = families[j]
            brute = count_pairs(ps, iv, "brute")
            pruned = count_pairs(ps, iv, "pruned")
            if (brute.total, brute.per_interval) != (pruned.total, pruned.per_interval):
                mismatches += 1
    _gate(
        "criterion 5a: pruned equals brute on 100 random sets x 2 families",
        mismatches == 0,
        f"mismatches={mismatches}",
    )

    ps = random_separated(2000, 2.0 * math.sqrt(2000), seed=42)
    iv = IntervalFamily([50.0], 1.0)
    assert (
        count_pairs(ps, iv, "brute").per_interval
        == count_pairs(ps, iv, "pruned").per_interval
    )
    t_brute = _best_time(lambda: count_pairs(ps, iv, "brute"), repeats=3)
    t_pruned = _best_time(lambda: count_pairs(ps, iv, "pruned"), repeats=3)
    _gate(
        "criterion 5b: pruned at least 2x faster than brute at n=2000",
        t_pruned * 2.0 <= t_brute,
        f"brute={t_brute * 1000:.1f}ms pruned={t_pruned * 1000:.1f}ms "
        f"speedup={t_brute / t_pruned:.1f}x",
    )


def test_criterion_06_upper_bound_sweep():
    n = 1000
    bound = n * n / 4 + 100 * n
    families = [
        IntervalFamily([7.0], 1.0),
        IntervalFamily([1.0, 30.0], 1.0),
        IntervalFamily([2.0, 11.0, 47.0], 1.0),
        IntervalFamily([1.5, 6.0, 21.0, 70.0], 0.5),
        IntervalFamily([3.0, 13.0, 45.0, 150.0, 500.0], 1.0),
    ]
    for iv in families:
        assert check_hypothesis(iv, 0.2).holds, "sweep family must satisfy the check"
    worst = 0
    violations = 0
    for seed in range(50):
        ps = random_separated(n, 64.0, seed=seed)
        total = count_pairs(ps, families[seed % len(families)], "pruned").total
        worst = max(worst, total)
        if total > bound:
            violations += 1
    _gate(
        "criterion 6: 50 seeded sets at n=1000 stay below n^2/4 + 100n",
        violations == 0,
        f"worst={worst} bound={bound:.0f}",
    )


def test_criterion_07_witness_extraction():
    built = augmented_chain(30, 3, 2000)
    graph = build_graph(built.ps, built.iv)

    found = find_tripartite(graph, 2)
    found_ok = found is not None and validate_tripartite(graph, found)

    # the second column realizes the unit interval inside one part pair:
    # hub in column one, B and D interleaved by height in column two
    column_witness = TripartiteWitness(x=0, B=(10, 13), D=(11, 12))
    refined = homogenize(graph, column_witness, 2)
    column_ok = (
        validate_tripartite(graph, column_witness)
        and refined is not None
        and validate_homogeneous(graph, refined)
        and refined.label_bd == 1
    )

    found_refined = homogenize(graph, found, 2)
    found_refined_ok = found_refined is not None and validate_homogeneous(
        graph, found_refined
    )

    agreement = True
    for seed in range(40):
        n = 4 + seed % 9
        ps = random_separated(n, max(6.0, 2.6 * math.sqrt(n)), seed)
        g = build_graph(ps, IntervalFamily([1.0, 3.5], 1.0))
        for s in (1, 2):
            if (find_tripartite(g, s) is not None) != oracle_tripartite_exists(g, s):
                agreement = False
    _gate(
        "criterion 7: witnesses found, homogenized with unit cross label, "
        "enumeration agreement at n <= 12",
        found_ok and column_ok and found_refined_ok and agreement,
        f"found={found} column_label_bd="
        f"{refined.label_bd if refined else None}",
    )


def test_criterion_08_angle_constants():
    mpmath.mp.dps = 40
    expected = float(2 * mpmath.asin(mpmath.mpf(1) / 6))
    bounds_half = triangle_angle_bounds(0.5)
    half_ok = abs(bounds_half.min_angle - expected) < 1e-12

    delta = 1e-4
    slope = triangle_angle_bounds(delta).min_angle / delta
    slope_ok = abs(slope - 0.5) < 1e-3

    doubling_ok = all(
        triangle_angle_bounds(d).max_angle_margin == 2 * triangle_angle_bounds(d).min_angle
        for d in (0.01, 0.1, 0.5, 0.9)
    )
    _gate(
        "criterion 8: angle constants match the closed form",
        half_ok and slope_ok and doubling_ok,
        f"min_angle(0.5)={bounds_half.min_angle!r} slope={slope:.6f}",
    )


def test_criterion_09_search_sanity():
    iv = IntervalFamily([50.0], 1.0)

    initial = PointSet([(0.0, 0.0), (0.0, 50.5), (10.0, 0.0), (10.0, 50.5)])
    zero = anneal(SearchConfig(n=4, iv=iv, iterations=0, seed=1), initial)
    zero_ok = (zero.best_ps.coords == initial.coords).all() and zero.best_count == 2

    recount_ok = True
    wins = 0
    results = []
    for seed in range(10):
        result = anneal(SearchConfig(n=8, iv=iv, iterations=10_000, seed=seed))
        results.append(result.best_count)
        recount = count_pairs(result.best_ps, iv, "brute").total
        recount_ok = recount_ok and recount == result.best_count
        if result.best_count >= 14:
            wins += 1

    _gate(
        "criterion 9a: zero-iteration run returns the initial state and "
        "best always matches an independent recount",
        zero_ok and recount_ok,
        f"counts={results}",
    )
    _soft_gate(
        "criterion 9b (soft): best_count >= 14 on at least 8 of 10 seeds",
        wins >= 8,
        f"wins={wins}/10 counts={results} construction_optimum=16",
    )


def test_criterion_10_cli_contract(tmp_path):
    gen = run_cli(
        "--output-dir", "tc", "generate", "two-column",
        "--n", 20, "--k", 2, "--t", 500, "--eps", 0.1, cwd=tmp_path,
    )
    cnt = run_cli(
        "--output-dir", "tc_cnt", "count", "tc/points.json", "tc/intervals.json",
        cwd=tmp_path,
    )
    ver = run_cli(
        "--output-dir", "tc_ver", "verify", "tc/points.json", "tc/intervals.json",
        "--delta", 0.2, "--C", 2, cwd=tmp_path,
    )
    pipeline_ok = gen.returncode == cnt.returncode == ver.returncode == 0

    run_cli(
        "--output-dir", "rm", "generate", "remark2",
        "--n", 30, "--t1", 2000, "--t2", 2000, cwd=tmp_path,
    )
    rm_ver = run_cli(
        "--output-dir", "rm_ver", "verify", "rm/points.json", "rm/intervals.json",
        "--delta", 0.2, "--C", 2, cwd=tmp_path,
    )
    negative_ok = rm_ver.returncode == 1

    (tmp_path / "broken.json").write_text("{nope")
    bad = run_cli("count", "broken.json", "tc/intervals.json", cwd=tmp_path)
    malformed_ok = bad.returncode == 2

    args = ["generate", "two-column", "--n", 20, "--k", 2, "--t", 500, "--eps", 0.1]
    run_cli("--output-dir", "m1", *args, cwd=tmp_path)
    run_cli("--output-dir", "m2", *args, cwd=tmp_path)
    names = ["points.json", "intervals.json", "construction.json", "manifest.json"]
    reproducible_ok = all(
        (tmp_path / "m1" / name).read_bytes() == (tmp_path / "m2" / name).read_bytes()
        for name in names
    )

    count_body = json.loads((tmp_path / "tc_cnt/count.json").read_text())
    body_ok = count_body["total"] == 118

    _gate(
        "criterion 10: CLI pipeline exit codes 0/1/2 and byte-identical reruns",
        pipeline_ok and negative_ok and malformed_ok and reproducible_ok and body_ok,
        f"gen={gen.returncode} cnt={cnt.returncode} ver={ver.returncode} "
        f"rm_ver={rm_ver.returncode} bad={bad.returncode}",
    )
