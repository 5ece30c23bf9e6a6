"""Golden `search` outputs: the annealer's walk must not drift.

`golden_search.json` holds the exact text of best_points.json, search.json
and trajectory.csv of every case below. A refactor of the annealer must
reproduce them byte for byte; only an intended change of the random walk may
re-record them. Every case starts from an --initial file built with plain
arithmetic (`generate two-column`/`emp1`, or a literal point), never from
`random_separated`, whose np.cos and np.sin may differ by an ulp between numpy
builds. To re-record, run this file as a script:

    PYTHONPATH=src python tests/test_golden_search.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from neardist import cli

GOLDEN = Path(__file__).with_name("golden_search.json")
FILES = ("best_points.json", "search.json", "trajectory.csv")

# input name -> `generate` arguments, or the literal files to write.
INPUTS = {
    "two-column-k1": ["two-column", "--n", "8", "--k", "1", "--t", "50", "--eps", "0.5"],
    "two-column-k2": ["two-column", "--n", "10", "--k", "2", "--t", "40", "--eps", "0.5"],
    "emp1-k5": ["emp1", "--n", "12", "--k", "5", "--t", "30"],
    "one-point": {
        "points.json": '{"dim": 2, "points": [[0.0, 0.0]]}',
        "intervals.json": '{"alpha": 1.0, "t": [5.0]}',
    },
}
CONFIG = {
    "n": 10, "iterations": 1500, "seed": 7, "restarts": 2, "jitter_sigma": 2.0,
    "teleport_probability": 0.3, "initial_temperature": 1.5, "cooling_factor": 0.999,
}
# case -> (input name, `search` arguments after the input files are given).
CASES = {
    "k1": ("two-column-k1", ["--n", "8", "--iterations", "2000", "--seed", "0"]),
    "k5-restarts2": ("emp1-k5", ["--n", "12", "--iterations", "1500", "--seed", "4",
                                 "--restarts", "2"]),
    "config": ("two-column-k2", None),
    "n1": ("one-point", ["--n", "1", "--iterations", "50", "--seed", "2"]),
}


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def search_outputs(work: Path) -> dict[str, str]:
    """Output text of every case, keyed "case/file", computed in the directory work."""
    for name, spec in INPUTS.items():
        inputs = work / name
        if isinstance(spec, list):
            assert _quiet_main(["generate", *spec, "--output-dir", str(inputs)]) == 0
        else:
            inputs.mkdir()
            for file, text in spec.items():
                (inputs / file).write_text(text, encoding="utf-8")
    out = {}
    for case, (name, args) in CASES.items():
        inputs = work / name
        if args is None:
            intervals = json.loads((inputs / "intervals.json").read_text(encoding="utf-8"))
            config = work / f"{case}.json"
            config.write_text(json.dumps(CONFIG | {"intervals": intervals}), encoding="utf-8")
            args = ["--config", str(config)]
        else:
            args = ["--intervals", str(inputs / "intervals.json"), *args]
        code = _quiet_main([
            "search", *args, "--initial", str(inputs / "points.json"),
            "--output-dir", str(work / case),
        ])
        assert code == 0, case
        for file in FILES:
            out[f"{case}/{file}"] = (work / case / file).read_text(encoding="utf-8")
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return search_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("key", [f"{case}/{file}" for case in CASES for file in FILES])
def test_search_matches_golden(outputs, key):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outputs[key] == golden[key]


def test_golden_walks_move():
    # The cases pin the annealer only if their walks accept and reject moves.
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for case in CASES:
        summary = json.loads(golden[f"{case}/search.json"])
        assert summary["accepted_moves"] > 0, case
        if case != "n1":
            assert summary["rejected_moves"] > 0, case
            counts = {row.split(",")[1] for row in golden[f"{case}/trajectory.csv"].splitlines()[1:]}
            assert len(counts) > 1, case


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(search_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
