"""Golden CLI files: every file a command writes, manifest.json included.

`golden_cli.json` holds, per case below, the exit code, stdout and the exact
text of every file in the case's output directory. The commands run inside
one work directory with relative paths, so the manifests' input_paths and the
printed output paths do not depend on where the work directory is. A change
to how results are turned into files must reproduce them byte for byte; only
an intended change of output may re-record them. The one exception is the
point file of `generate random`: its points come through np.cos and np.sin,
whose float64 results may differ by an ulp between numpy builds, so its
coordinates are kept rounded to 10 decimals, in the same layout as the other
point files. To re-record, run this file as a script:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from neardist import cli

GOLDEN = Path(__file__).with_name("golden_cli.json")
# Literal inputs, written into the work directory before the cases run.
INPUTS = {
    "one-point.json": '{"dim": 2, "points": [[0.0, 0.0]]}',
}
# case -> `neardist` arguments; each case writes into the directory named
# after it, and later cases read what earlier ones wrote.
CASES = {
    "gen-two-column": ["generate", "two-column", "--n", "12", "--k", "2", "--t", "40",
                       "--eps", "0.5"],
    "gen-remark2": ["generate", "remark2", "--n", "10", "--t1", "20", "--t2", "30"],
    "gen-emp1": ["generate", "emp1", "--n", "11", "--k", "3", "--t", "30"],
    "gen-problem3": ["generate", "problem3", "--n", "10", "--k", "3", "--t", "25"],
    "gen-random": ["generate", "random", "--n", "9", "--box", "12", "--seed", "3"],
    "gen-two-column-csv": ["generate", "two-column", "--n", "7", "--k", "3", "--t", "20",
                           "--eps", "0.5", "--format", "csv"],
    "count-brute": ["count", "gen-emp1/points.json", "gen-emp1/intervals.json",
                    "--method", "brute"],
    "count-pruned": ["count", "gen-two-column/points.json", "gen-two-column/intervals.json",
                     "--method", "pruned"],
    "hypothesis-holds": ["check-hypothesis", "gen-two-column/intervals.json", "--delta", "0.1"],
    "hypothesis-fails": ["check-hypothesis", "gen-remark2/intervals.json", "--delta", "0.1"],
    "verify-within": ["verify", "gen-two-column/points.json", "gen-two-column/intervals.json",
                      "--delta", "0.1", "--C", "5"],
    "verify-over": ["verify", "gen-emp1/points.json", "gen-emp1/intervals.json",
                    "--delta", "0.1", "--C", "0"],
    "verify-one-point": ["verify", "one-point.json", "gen-two-column/intervals.json",
                         "--delta", "0.1", "--C", "1"],
    "diameter": ["diameter", "gen-problem3/points.json"],
}
# Kept with rounded coordinates (see the module docstring).
ROUNDED = {"gen-random/points.json"}


def _text(path: Path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.as_posix() in ROUNDED:
        payload = json.loads(text)
        payload["points"] = [[round(v, 10) for v in p] for p in payload["points"]]
        text = json.dumps(payload, indent=2) + "\n"
    return text


def cli_outputs(work: Path) -> dict[str, dict]:
    """Exit code, stdout and output files of every case, run inside work."""
    for file, text in INPUTS.items():
        (work / file).write_text(text, encoding="utf-8")
    out = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for case, args in CASES.items():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main([*args, "--output-dir", case])
            files = {f.name: _text(f) for f in sorted(Path(case).iterdir())}
            out[case] = {"exit": code, "stdout": stdout.getvalue(), "files": files}
    finally:
        os.chdir(cwd)
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return cli_outputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_golden(outputs, golden, case):
    got, want = outputs[case], golden[case]
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])
    assert list(got["files"]) == list(want["files"])
    for file, text in want["files"].items():
        assert got["files"][file] == text, file


def test_golden_covers_both_verdicts(golden):
    # The set pins the exit-1 payloads only if it holds both verdicts, and the
    # one-point null only if that case wrote it.
    assert {golden[c]["exit"] for c in ("hypothesis-holds", "verify-within")} == {0}
    assert {golden[c]["exit"] for c in ("hypothesis-fails", "verify-over")} == {1}
    one = json.loads(golden["verify-one-point"]["files"]["verify.json"])
    assert one["min_distance"] is None


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(cli_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
