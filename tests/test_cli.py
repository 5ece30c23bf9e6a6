import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neardist import IntervalFamily, PointSet, cli, count_pairs
from neardist.fileio import (
    InputFormatError,
    UnsupportedDimensionError,
    load_intervals,
    load_point_set,
    save_point_set,
    write_json,
)

from conftest import SRC_DIR, run_cli


class TestFileIO:
    def test_point_set_json_round_trip_bit_exact(self, tmp_path):
        ps = PointSet([(0.1, -2.7182818284590455), (1e-17, 12345.6789)])
        path = tmp_path / "pts.json"
        save_point_set(ps, path)
        back = load_point_set(path)
        assert (back.coords == ps.coords).all()

    def test_point_set_csv_round_trip_bit_exact(self, tmp_path):
        ps = PointSet([(math.pi, -math.e), (1 / 3, 2**-40)])
        path = tmp_path / "pts.csv"
        save_point_set(ps, path)
        back = load_point_set(path)
        assert (back.coords == ps.coords).all()

    def test_intervals_round_trip(self, tmp_path):
        iv = IntervalFamily([1.0, 2.5, 100.125], 0.1)
        path = tmp_path / "iv.json"
        write_json(path, asdict(iv))
        back = load_intervals(path)
        assert back.t == iv.t and back.alpha == iv.alpha

    def test_dimension_three_rejected(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text('{"dim": 3, "points": [[1, 2, 3]]}')
        with pytest.raises(UnsupportedDimensionError):
            load_point_set(path)

    def test_empty_points_rejected(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text('{"dim": 2, "points": []}')
        with pytest.raises(InputFormatError):
            load_point_set(path)

    def test_empty_intervals_rejected(self, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text('{"alpha": 1.0, "t": []}')
        with pytest.raises(InputFormatError):
            load_intervals(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "pts.json"
        path.write_text("{nope")
        with pytest.raises(InputFormatError):
            load_point_set(path)

    def test_bad_csv_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        for rows in ("1.0,2.0\n3.0,\n", "1.0,2.0\nx\n"):
            path.write_text(rows)
            with pytest.raises(InputFormatError):
                load_point_set(path)
        # A lone number is a 1-D point, as [3.0] is in JSON.
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(UnsupportedDimensionError):
            load_point_set(path)

    def test_dimension_must_be_a_number(self, tmp_path):
        path = tmp_path / "pts.json"
        for dim in ("true", '"2"', "null"):
            path.write_text(f'{{"dim": {dim}, "points": [[0, 0]]}}')
            with pytest.raises(InputFormatError):
                load_point_set(path)
        path.write_text('{"dim": 2.0, "points": [[0, 0]]}')
        assert load_point_set(path).n == 1
        path.write_text('{"dim": 2.5, "points": [[0, 0]]}')
        with pytest.raises(UnsupportedDimensionError):
            load_point_set(path)

    def test_csv_decimal_forms_accepted(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("-1.5e3,+2\n.5, 3.\n1E-5 ,-0.0\n")
        assert load_point_set(path).coords.tolist() == [[-1500.0, 2.0], [0.5, 3.0], [1e-5, -0.0]]


class TestPipeline:
    def test_generate_count_verify_within_bound(self, tmp_path):
        gen = run_cli(
            "--output-dir", "out", "generate", "two-column",
            "--n", 20, "--k", 2, "--t", 500, "--eps", 0.1, cwd=tmp_path,
        )
        assert gen.returncode == 0, gen.stderr
        sidecar = json.loads((tmp_path / "out/construction.json").read_text())
        assert sidecar["predicted_count"] == 118
        assert sidecar["name"] == "two-column"

        cnt = run_cli(
            "--output-dir", "cnt", "count", "out/points.json", "out/intervals.json",
            cwd=tmp_path,
        )
        assert cnt.returncode == 0
        assert "n=20 total=118 method=brute" in cnt.stdout
        report = json.loads((tmp_path / "cnt/count.json").read_text())
        assert report == {"total": 118, "per_interval": [18, 100], "method": "brute"}

        ver = run_cli(
            "--output-dir", "ver", "verify", "out/points.json", "out/intervals.json",
            "--delta", 0.2, "--C", 2, cwd=tmp_path,
        )
        assert ver.returncode == 0
        verdict = json.loads((tmp_path / "ver/verify.json").read_text())
        assert verdict["within_bound"] and verdict["hypothesis"]["holds"]
        assert verdict["count"]["total"] == 118
        assert verdict["diameter"] == math.sqrt(500**2 + 81)

    def test_verify_exit_one_on_exceeded_bound(self, tmp_path):
        gen = run_cli(
            "--output-dir", "out", "generate", "remark2",
            "--n", 30, "--t1", 2000, "--t2", 2000, cwd=tmp_path,
        )
        assert gen.returncode == 0, gen.stderr
        ver = run_cli(
            "--output-dir", "ver", "verify", "out/points.json", "out/intervals.json",
            "--delta", 0.2, "--C", 2, cwd=tmp_path,
        )
        assert ver.returncode == 1
        verdict = json.loads((tmp_path / "ver/verify.json").read_text())
        assert not verdict["within_bound"]
        assert not verdict["hypothesis"]["holds"]

    def test_check_hypothesis_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text('{"alpha": 1.0, "t": [1.0, 5.0, 25.0]}')
        bad = tmp_path / "bad.json"
        bad.write_text('{"alpha": 1.0, "t": [10.0, 20.0, 30.0]}')
        assert run_cli("check-hypothesis", "good.json", "--delta", 0.2, cwd=tmp_path).returncode == 0
        assert run_cli("check-hypothesis", "bad.json", "--delta", 0.2, cwd=tmp_path).returncode == 1

    def test_malformed_input_exit_two(self, tmp_path):
        (tmp_path / "bad.json").write_text("{nope")
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [1.0]}')
        res = run_cli("count", "bad.json", "iv.json", cwd=tmp_path)
        assert res.returncode == 2

    def test_empty_intervals_exit_two(self, tmp_path):
        (tmp_path / "pts.json").write_text('{"dim": 2, "points": [[0, 0], [5, 0]]}')
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": []}')
        res = run_cli("count", "pts.json", "iv.json", cwd=tmp_path)
        assert res.returncode == 2

    def test_invalid_construction_params_exit_two(self, tmp_path):
        res = run_cli(
            "generate", "two-column", "--n", 20, "--k", 2, "--t", 10, "--eps", 0.1,
            cwd=tmp_path,
        )
        assert res.returncode == 2
        assert "needs t >=" in res.stderr

    def test_dimension_exit_three(self, tmp_path):
        (tmp_path / "p3.json").write_text('{"dim": 3, "points": [[1, 2, 3], [4, 5, 6]]}')
        res = run_cli("diameter", "p3.json", cwd=tmp_path)
        assert res.returncode == 3

    @pytest.mark.parametrize("rows", ["0,0,0\n1,2,3\n", "0,0\n1,2,-3e0,4\n", "0,0\n1.5\n"])
    def test_csv_dimension_exit_three(self, tmp_path, rows):
        (tmp_path / "p3.csv").write_text(rows)
        res = run_cli("diameter", "p3.csv", cwd=tmp_path)
        assert res.returncode == 3
        assert "only 2 coordinates" in res.stderr

    @pytest.mark.parametrize("rows", ["0;0\n1;2\n", "x,y\n0,0\n", "0,0,z\n", "0,,0\n", "0,0\n1.5,\n"])
    def test_csv_malformed_row_exit_two(self, tmp_path, rows):
        (tmp_path / "bad.csv").write_text(rows)
        res = run_cli("diameter", "bad.csv", cwd=tmp_path)
        assert res.returncode == 2

    def test_delta_out_of_range_exit_two(self, tmp_path):
        (tmp_path / "pts.json").write_text('{"dim": 2, "points": [[0, 0], [5, 0]]}')
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [5.0]}')
        res = run_cli(
            "verify", "pts.json", "iv.json", "--delta", 1.5, "--C", 1, cwd=tmp_path
        )
        assert res.returncode == 2

    def test_count_methods_identical_bodies(self, tmp_path):
        run_cli(
            "--output-dir", "out", "generate", "two-column",
            "--n", 16, "--k", 2, "--t", 400, "--eps", 0.1, cwd=tmp_path,
        )
        run_cli("--output-dir", "b", "count", "out/points.json", "out/intervals.json",
                "--method", "brute", cwd=tmp_path)
        run_cli("--output-dir", "p", "count", "out/points.json", "out/intervals.json",
                "--method", "pruned", cwd=tmp_path)
        brute = json.loads((tmp_path / "b/count.json").read_text())
        pruned = json.loads((tmp_path / "p/count.json").read_text())
        assert brute.pop("method") == "brute"
        assert pruned.pop("method") == "pruned"
        assert brute == pruned


class TestGenerateRandom:
    def test_reproducible(self, tmp_path):
        for out in ("a", "b"):
            res = run_cli(
                "--output-dir", out, "generate", "random",
                "--n", 100, "--box", 40, "--seed", 7, cwd=tmp_path,
            )
            assert res.returncode == 0, res.stderr
        a = (tmp_path / "a/points.json").read_bytes()
        b = (tmp_path / "b/points.json").read_bytes()
        assert a == b
        ps = load_point_set(tmp_path / "a/points.json")
        assert ps.n == 100

    def test_csv_format(self, tmp_path):
        res = run_cli(
            "--output-dir", "c", "--format", "csv", "generate", "random",
            "--n", 9, "--box", 6, "--seed", 1, cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        ps = load_point_set(tmp_path / "c/points.csv")
        assert ps.n == 9


class TestManifests:
    def test_manifest_written_with_expected_fields(self, tmp_path):
        run_cli(
            "--output-dir", "out", "generate", "emp1",
            "--n", 30, "--k", 2, "--t", 2000, cwd=tmp_path,
        )
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert set(manifest) == {
            "command", "params", "input_paths", "output_paths", "seed", "tool_version",
        }
        assert manifest["command"] == "generate"
        assert manifest["output_paths"] == [
            "points.json", "intervals.json", "construction.json",
        ]

    def test_rerun_is_byte_identical(self, tmp_path):
        args = ["generate", "problem3", "--n", 30, "--k", 3, "--t", 2000]
        run_cli("--output-dir", "a", *args, cwd=tmp_path)
        run_cli("--output-dir", "b", *args, cwd=tmp_path)
        for name in ("points.json", "intervals.json", "construction.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_search_rerun_byte_identical(self, tmp_path):
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [5.0]}')
        args = ["search", "--intervals", "iv.json", "--n", 6,
                "--iterations", 300, "--seed", 11]
        for out in ("a", "b"):
            res = run_cli("--output-dir", out, *args, cwd=tmp_path)
            assert res.returncode == 0, res.stderr
        for name in ("best_points.json", "search.json", "trajectory.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestSearchCommand:
    def test_zero_iterations_returns_initial(self, tmp_path):
        (tmp_path / "init.json").write_text(
            '{"dim": 2, "points": [[0.0, 0.0], [0.0, 5.5], [20.0, 0.0]]}'
        )
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [5.0]}')
        res = run_cli(
            "--output-dir", "out", "search", "--intervals", "iv.json",
            "--n", 3, "--iterations", 0, "--initial", "init.json", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        best = json.loads((tmp_path / "out/best_points.json").read_text())
        assert best["points"] == [[0.0, 0.0], [0.0, 5.5], [20.0, 0.0]]
        summary = json.loads((tmp_path / "out/search.json").read_text())
        assert summary["best_count"] == 1
        traj = (tmp_path / "out/trajectory.csv").read_text().splitlines()
        assert traj[0] == "iteration,count"
        assert traj[1] == "0,1"

    def test_config_file(self, tmp_path):
        (tmp_path / "cfg.json").write_text(json.dumps({
            "n": 5, "iterations": 200, "seed": 3, "restarts": 2,
            "intervals": {"alpha": 1.0, "t": [4.0]},
        }))
        res = run_cli("--output-dir", "out", "search", "--config", "cfg.json", cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "out/search.json").read_text())
        assert summary["restarts"] == 2 and summary["seed"] == 3

    def test_csv_format_writes_csv_points(self, tmp_path):
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [50.0]}')
        res = run_cli(
            "--output-dir", "o", "--format", "csv", "search", "--intervals", "iv.json",
            "--n", 8, "--iterations", 200, "--seed", 1, cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert not (tmp_path / "o/best_points.json").exists()
        manifest = json.loads((tmp_path / "o/manifest.json").read_text())
        assert manifest["output_paths"][0] == "best_points.csv"
        best = load_point_set(tmp_path / "o/best_points.csv")
        summary = json.loads((tmp_path / "o/search.json").read_text())
        recount = count_pairs(best, IntervalFamily([50.0], 1.0), method="brute")
        assert best.n == 8 and recount.total == summary["best_count"]

    def test_summary_keys_in_order(self, tmp_path):
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [5.0]}')
        res = run_cli(
            "--output-dir", "out", "search", "--intervals", "iv.json",
            "--n", 4, "--iterations", 30, "--seed", 2, "--restarts", 2, cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "out/search.json").read_text())
        assert list(summary) == ["best_count", "accepted_moves", "rejected_moves", "n",
                                 "iterations", "restarts", "seed"]
        assert [summary[k] for k in ("n", "iterations", "restarts", "seed")] == [4, 30, 2, 2]
        assert summary["accepted_moves"] + summary["rejected_moves"] == 30 * 2

    def test_missing_flags_exit_two(self, tmp_path):
        res = run_cli("search", "--n", 5, cwd=tmp_path)
        assert res.returncode == 2

    def test_iterations_too_large_for_default_cooling_exit_two(self, tmp_path):
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [5.0]}')
        res = run_cli("--output-dir", "out", "search", "--intervals", "iv.json",
                      "--n", 4, "--iterations", 10**18, cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == ("error: iterations=1000000000000000000 rounds the default "
                              "cooling factor 1 - 10 / iterations to 1.0; "
                              "set cooling_factor in (0, 1)\n")


class TestAnalyzeCommand:
    def test_witness_found_on_chain(self, tmp_path):
        run_cli(
            "--output-dir", "out", "generate", "problem3",
            "--n", 30, "--k", 3, "--t", 2000, cwd=tmp_path,
        )
        res = run_cli(
            "--output-dir", "ana", "analyze", "out/points.json", "out/intervals.json",
            "--s", 2, "--m", 2, "--delta", 0.1, cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "ana/analysis.json").read_text())
        witness = payload["witness"]
        assert witness is not None
        assert {"x", "B", "D", "B2", "D2", "labels"} <= set(witness)
        assert payload["edges"] == 351

    def test_no_witness_on_sparse_input(self, tmp_path):
        (tmp_path / "pts.json").write_text(
            '{"dim": 2, "points": [[0, 0], [100, 0], [203, 9]]}'
        )
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [5.0]}')
        res = run_cli(
            "--output-dir", "ana", "analyze", "pts.json", "iv.json", "--s", 3,
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "ana/analysis.json").read_text())
        assert payload["witness"] is None
        assert "witness=none" in res.stdout

    def test_huge_s_finds_no_witness(self, tmp_path):
        # 2 * s lies far beyond int64: no hub qualifies, and the search ends cleanly.
        (tmp_path / "pts.json").write_text('{"dim": 2, "points": [[0, 0], [5, 0], [0, 5], [5, 5]]}')
        (tmp_path / "iv.json").write_text('{"alpha": 1.0, "t": [5.0]}')
        res = run_cli(
            "--output-dir", "ana", "analyze", "pts.json", "iv.json", "--s", 10**21, "--m", 1,
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((tmp_path / "ana/analysis.json").read_text())
        assert payload["edges"] == 4 and payload["witness"] is None


class TestDiameterCommand:
    def test_reports_value(self, tmp_path):
        (tmp_path / "pts.json").write_text(
            '{"dim": 2, "points": [[0, 0], [3, 4]]}'
        )
        res = run_cli("--output-dir", "out", "diameter", "pts.json", cwd=tmp_path)
        assert res.returncode == 0
        assert "diameter=5.0" in res.stdout
        payload = json.loads((tmp_path / "out/diameter.json").read_text())
        assert payload == {"n": 2, "diameter": 5.0}


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


PTS = '{"dim": 2, "points": [[0, 0], [0, 1], [0, 2], [5, 0], [5, 1], [5, 2]]}'
IV = '{"alpha": 1.0, "t": [1.0, 5.0]}'
CONFIG = {"n": 3, "iterations": 20, "seed": 1, "intervals": {"alpha": 1.0, "t": [5.0]}}
INPUTS = {"pts.json": PTS, "iv.json": IV}
HOLES = {
    "config-intervals-list": (
        {"cfg.json": json.dumps(CONFIG | {"intervals": [1, 2]})}, ["search", "--config", "cfg.json"]),
    "config-iterations-float": (
        {"cfg.json": json.dumps(CONFIG | {"iterations": 10.5})}, ["search", "--config", "cfg.json"]),
    "config-seed-string": (
        {"cfg.json": json.dumps(CONFIG | {"seed": "x"})}, ["search", "--config", "cfg.json"]),
    "config-n-bool": (
        {"cfg.json": json.dumps(CONFIG | {"n": True})}, ["search", "--config", "cfg.json"]),
    "config-with-flags": (
        {"cfg.json": json.dumps(CONFIG)},
        ["search", "--config", "cfg.json",
         "--seed", 9, "--n", 7, "--iterations", 5, "--restarts", 3]),
    "config-unknown-key": (
        {"cfg.json": json.dumps(CONFIG | {"bogus": 1})}, ["search", "--config", "cfg.json"]),
    "config-without-seed-with-seed-flag": (
        {"cfg.json": json.dumps({k: v for k, v in CONFIG.items() if k != "seed"})},
        ["search", "--config", "cfg.json", "--seed", 4]),
    "analyze-m-above-s": (INPUTS, ["analyze", "pts.json", "iv.json", "--s", 3, "--m", 5]),
    "analyze-delta-out-of-range": (INPUTS, ["analyze", "pts.json", "iv.json", "--delta", 5]),
    "output-dir-is-a-file": (INPUTS, ["diameter", "pts.json", "--output-dir", "pts.json"]),
    "coordinates-beyond-limit": (
        {"big.json": '{"dim": 2, "points": [[1e200, 0], [-1e200, 0]]}'}, ["diameter", "big.json"]),
    "interval-end-beyond-limit": (
        INPUTS | {"big.json": '{"alpha": 1.0, "t": [1e200]}'}, ["count", "pts.json", "big.json"]),
    "box-nan": ({}, ["generate", "random", "--n", 3, "--box", "nan"]),
    "C-nan": (INPUTS, ["verify", "pts.json", "iv.json", "--delta", 0.2, "--C", "nan"]),
    "bound-overflow": (INPUTS, ["verify", "pts.json", "iv.json", "--delta", 0.2, "--C", 1e308]),
    "interval-value-overflow": ({}, ["generate", "two-column", "--n", 4, "--k", 1000, "--t", 10]),
    # 3**1999 overflows a float: k is refused by name before the power is taken.
    "column-k-beyond-limit": ({}, ["generate", "two-column", "--n", 10, "--k", 2000, "--t", 500]),
    "point-object": (
        {"obj.json": '{"dim": 2, "points": [{"x": 1, "y": 2}, [0, 0]]}'}, ["diameter", "obj.json"]),
    "point-string": ({"str.json": '{"dim": 2, "points": ["12", [5, 5]]}'}, ["diameter", "str.json"]),
    "interval-bools-count": (
        INPUTS | {"bool.json": '{"alpha": true, "t": [true, "5"]}'}, ["count", "pts.json", "bool.json"]),
    "interval-bools-analyze": (
        INPUTS | {"bool.json": '{"alpha": true, "t": [true, "5"]}'}, ["analyze", "pts.json", "bool.json"]),
    "interval-string": (
        INPUTS | {"str.json": '{"alpha": 1.0, "t": [1.0, "5"]}'}, ["count", "pts.json", "str.json"]),
    "interval-alpha-string": (
        INPUTS | {"str.json": '{"alpha": "1", "t": [1.0, 5.0]}'}, ["count", "pts.json", "str.json"]),
    "config-interval-strings": (
        {"cfg.json": json.dumps(CONFIG | {"intervals": {"alpha": "1", "t": ["5"]}})},
        ["search", "--config", "cfg.json"]),
    "csv-digit-separator": ({"sep.csv": "1_0,2\n0,0\n"}, ["diameter", "sep.csv"]),
    "csv-non-ascii-digit": ({"arabic.csv": "\u0661,2\n0,0\n"}, ["diameter", "arabic.csv"]),
    "csv-infinity": ({"inf.csv": "infinity,2\n0,0\n"}, ["diameter", "inf.csv"]),
    # 10**16 int64 exceed any 64-bit address space, so the allocation fails at once.
    "search-n-beyond-memory": (
        INPUTS, ["search", "--intervals", "iv.json", "--n", 10**16, "--iterations", 1]),
    "random-n-beyond-memory": ({}, ["generate", "random", "--n", 10**16, "--box", 3e8]),
    "search-seed-negative": (
        INPUTS, ["search", "--intervals", "iv.json", "--n", 3, "--iterations", 1, "--seed", -1]),
    "random-seed-negative": ({}, ["generate", "random", "--n", 3, "--box", 6, "--seed", -1]),
    # two-column uses no seed, yet a negative one is refused there too.
    "column-seed-negative": (
        {}, ["generate", "two-column", "--n", 20, "--k", 2, "--t", 500, "--seed", -1]),
    "dim-bool": ({"d.json": '{"dim": true, "points": [[0, 0], [5, 5]]}'}, ["diameter", "d.json"]),
    "dim-string": ({"d.json": '{"dim": "2", "points": [[0, 0], [5, 5]]}'}, ["diameter", "d.json"]),
    "dim-missing": ({"d.json": '{"points": [[0, 0], [5, 5]]}'}, ["diameter", "d.json"]),
    # --restarts 0 is refused, not read as the default 1.
    "search-restarts-zero": (
        INPUTS, ["search", "--intervals", "iv.json", "--n", 3, "--iterations", 1, "--restarts", 0]),
}


class TestInputContract:
    @pytest.mark.parametrize("files, args", HOLES.values(), ids=HOLES.keys())
    def test_bad_input_exits_two_with_one_error_line(self, tmp_path, files, args):
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        res = run_cli("--output-dir", "out", *args, cwd=tmp_path)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        lines = res.stderr.splitlines()
        # run() reports one line; argparse prints its usage above its error line
        assert lines[-1].startswith("error: ") if len(lines) == 1 else ": error: " in lines[-1]
        assert res.stdout == ""
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("name, args", [
        ("raw.json", ["diameter", "raw.json"]),
        ("raw.json", ["count", "pts.json", "raw.json"]),
        ("raw.json", ["search", "--config", "raw.json"]),
        ("raw.csv", ["diameter", "raw.csv"]),
    ], ids=["points", "intervals", "config", "csv"])
    def test_undecodable_byte_error_names_file(self, tmp_path, name, args):
        (tmp_path / "pts.json").write_text(PTS, encoding="utf-8")
        (tmp_path / name).write_bytes(b'{"dim": 2, "t": [\xff]}\n' if name.endswith(".json")
                                      else b"0,0\n\xff,1\n")
        res = run_cli("--output-dir", "out", *args, cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert name in res.stderr
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("args", [
        ["diameter", "deep.json"],
        ["count", "pts.json", "deep.json"],
        ["search", "--config", "deep.json"],
    ], ids=["points", "intervals", "config"])
    def test_deeply_nested_json_exits_two(self, tmp_path, args):
        # Nested past the decoder's recursion limit: an input error, not a crash.
        (tmp_path / "pts.json").write_text(PTS, encoding="utf-8")
        (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        res = run_cli("--output-dir", "out", *args, cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr, res.stderr
        assert "deep.json" in res.stderr

    @pytest.mark.parametrize(
        "hole", ["search-seed-negative", "random-seed-negative", "column-seed-negative"])
    def test_negative_seed_error_names_seed(self, tmp_path, hole):
        files, args = HOLES[hole]
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 2
        assert "seed" in res.stderr and res.stderr.endswith(">= 0, got -1\n")

    @pytest.mark.parametrize("hole, named", [
        ("config-with-flags", ["--seed", "--n", "--iterations", "--restarts"]),
        ("config-unknown-key", ["'bogus'"]),
        ("config-without-seed-with-seed-flag", ["--seed"]),
        ("column-k-beyond-limit", ["k=2000"]),
    ])
    def test_config_error_names_flag_or_key(self, tmp_path, hole, named):
        files, args = HOLES[hole]
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        res = run_cli(*args, cwd=tmp_path)
        assert res.returncode == 2
        assert all(word in res.stderr for word in named), res.stderr

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS, and ru_maxrss in KiB")
    def test_oversized_column_generate_fails_at_once(self, tmp_path):
        # 3e9 points take 48 GB as arrays: the first allocation must fail under
        # a 2 GiB address-space limit, rather than memory grow up to it.
        import resource

        limit = 2 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        argv = ["generate", "two-column", "--n", "3000000000", "--k", "2", "--t", "1e300",
                "--eps", "0.5"]
        with open(tmp_path / "stderr", "w+") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "neardist", *argv], cwd=tmp_path, env=env,
                stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            )
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        stderr = (tmp_path / "stderr").read_text()
        assert child.returncode == 2, stderr
        assert stderr.startswith("error: ") and stderr.count("\n") == 1, stderr
        assert usage.ru_maxrss < 500 * 1024

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS, and ru_maxrss in KiB")
    @pytest.mark.parametrize("argv, message", [
        # 3e8 points, with the last of the four column anchors at 3t > 2**510:
        # the anchors must be refused before the 2.4 GB of points is allocated.
        (["emp1", "--n", "300000000", "--k", "3", "--t", "1.3407807929942597e153"],
         "error: point coordinates must be finite with magnitude at most 2**510\n"),
        # Anchors in range: the first 12 GB column fails to allocate at once.
        (["two-column", "--n", "3000000000", "--k", "2", "--t", "1e19", "--eps", "0.5"],
         "error: Unable to allocate "),
    ], ids=["anchor-limit", "allocation"])
    def test_column_generate_checks_anchors_before_points(self, tmp_path, argv, message):
        import resource

        limit = 2 << 30
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        with open(tmp_path / "stderr", "w+") as err:
            child = subprocess.Popen(
                [sys.executable, "-m", "neardist", "generate", *argv], cwd=tmp_path, env=env,
                stdout=subprocess.DEVNULL, stderr=err,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            )
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        stderr = (tmp_path / "stderr").read_text()
        assert child.returncode == 2, stderr
        assert stderr.startswith(message) and stderr.count("\n") == 1, stderr
        assert usage.ru_maxrss < 200 * 1024

    def test_verify_one_point_writes_null_min_distance(self, tmp_path):
        (tmp_path / "one.json").write_text('{"dim": 2, "points": [[0.5, 0.25]]}')
        (tmp_path / "iv.json").write_text(IV)
        res = run_cli("--output-dir", "out", "verify", "one.json", "iv.json",
                      "--delta", 0.2, "--C", 1, cwd=tmp_path)
        assert res.returncode == 0, res.stderr
        verdict = strict_json((tmp_path / "out/verify.json").read_text())
        assert verdict["min_distance"] is None and verdict["separated"]

    def test_common_flags_before_or_after_subcommand(self, tmp_path):
        args = ["generate", "random", "--n", 9, "--box", 6]
        run_cli("--output-dir", "a", "--format", "csv", "--seed", 3, *args, cwd=tmp_path)
        run_cli("--seed", 1, *args, "--output-dir", "b", "--format", "csv", "--seed", 3, cwd=tmp_path)
        for name in ("points.csv", "construction.json", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        assert strict_json((tmp_path / "b/manifest.json").read_text())["seed"] == 3


FUZZ_ARGVS = [
    ["--output-dir", "out", "generate", "two-column", "--n", "6", "--k", "2", "--t", "500"],
    ["generate", "random", "--n", "5", "--box", "9", "--seed", "1", "--format", "csv"],
    ["--output-dir", "out", "generate", "remark2", "--n", "6", "--t1", "20", "--t2", "30"],
    ["--output-dir", "out", "count", "pts.json", "iv.json", "--method", "pruned"],
    ["--output-dir", "out", "check-hypothesis", "iv.json", "--delta", "0.2"],
    ["--output-dir", "out", "verify", "pts.csv", "iv.json", "--delta", "0.2", "--C", "2"],
    ["--output-dir", "out", "search", "--config", "cfg.json"],
    ["search", "--intervals", "iv.json", "--n", "3", "--iterations", "20", "--initial", "pts3.json"],
    ["--output-dir", "out", "analyze", "pts.json", "iv.json", "--s", "1", "--m", "1"],
    ["diameter", "pts.json", "--output-dir", "out"],
]
# Integers stay small so that no mutation asks for a long run or a large allocation.
FUZZ_TOKENS = [
    "nan", "inf", "-inf", "1e400", "1e300", "-1", "0", "1", "3", "40", "0.5", "1.5", "abc", "",
    "--seed", "--format", "csv", "out", "pts.json", "pts.csv", "iv.json", "broken.json",
    "dim3.json", "big.json", "mixed.json", "missing.json", "cfg.json", "afile", "afile/sub",
]
FUZZ_VALUES = [
    True, None, "x", 1.5, -1, 0, 3, float("nan"), float("inf"), 1e300, [1, 2], {}, {"t": 5},
]
FUZZ_FILES = {
    "pts.json": PTS,
    "pts.csv": "0,0\n0,1\n0,2\n5,0\n5,1\n5,2\n",
    "pts3.json": '{"dim": 2, "points": [[0.0, 0.0], [0.0, 5.5], [20.0, 0.0]]}',
    "iv.json": IV,
    "broken.json": "{nope",
    "dim3.json": '{"dim": 3, "points": [[1, 2, 3]]}',
    "big.json": '{"dim": 2, "points": [[1e300, 0]]}',
    "mixed.json": '{"dim": 2, "points": [[0, 0], {"x": 1, "y": 2}, "12", [true, 1]]}',
    "afile": "",
}


def _mutate(argv, edits):
    argv = list(argv)
    for kind, index, token in edits:
        index %= len(argv) + 1
        if kind == "insert":
            argv.insert(index, token)
        elif index < len(argv):
            argv[index : index + 1] = [] if kind == "delete" else [token]
    return argv


def _assert_strict(path):
    text = path.read_text()
    if path.suffix == ".json":
        strict_json(text)
        return
    assert path.suffix == ".csv", path
    rows = [line.split(",") for line in text.splitlines()]
    for row in rows[1:] if rows[:1] == [["iteration", "count"]] else rows:
        assert len(row) == 2 and all(math.isfinite(float(v)) for v in row), path


class TestInputContractFuzz:
    @given(
        argv=st.sampled_from(FUZZ_ARGVS),
        edits=st.lists(
            st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 15),
                      st.sampled_from(FUZZ_TOKENS)),
            max_size=3,
        ),
        config_edits=st.dictionaries(
            st.sampled_from(["n", "iterations", "seed", "restarts", "jitter_sigma",
                             "teleport_probability", "initial_temperature", "cooling_factor",
                             "intervals", "t", "alpha"]),
            st.sampled_from(FUZZ_VALUES),
            max_size=2,
        ),
    )
    @settings(max_examples=150, deadline=None)
    @example(argv=FUZZ_ARGVS[6], edits=[], config_edits={"intervals": True, "t": True})
    def test_mutated_argv_and_config_keep_exit_contract(self, argv, edits, config_edits):
        config = json.loads(json.dumps(CONFIG))
        # t and alpha edit the original intervals object, even when another edit replaces it.
        intervals = config["intervals"]
        for key, value in config_edits.items():
            if key in ("t", "alpha"):
                intervals[key] = value
            else:
                config[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for name, text in (FUZZ_FILES | {"cfg.json": json.dumps(config)}).items():
                (root / name).write_text(text)
            before = {path: path.read_bytes() for path in root.iterdir()}
            stdout, stderr = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(root)
            try:
                with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
                    warnings.simplefilter("error", RuntimeWarning)
                    code = cli.main(_mutate(argv, edits))
            except SystemExit as exc:  # argparse rejecting the command line
                assert exc.code == 2
                code = None
            finally:
                os.chdir(cwd)
            assert code in (None, 0, 1, 2, 3)
            if code in (2, 3):
                assert stderr.getvalue().startswith("error: ")
                assert stderr.getvalue().count("\n") == 1
            for path in root.rglob("*"):
                if path.is_file() and before.get(path) != path.read_bytes():
                    _assert_strict(path)
