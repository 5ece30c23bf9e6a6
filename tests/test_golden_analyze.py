"""Golden `analyze` outputs: witnesses and refinements must not drift.

`golden_analyze.json` holds the exact analysis.json text of every case below:
the s <= 3 cases recorded with the all-pairs `label_pairs` and the dict-based
graph, the s = 4 and 5 cases with the CSR graph. Any faster enumerator, graph
layout or witness search must reproduce them byte for byte. To re-record
(only when a change of output is intended), run this file as a script:

    PYTHONPATH=src python tests/test_golden_analyze.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from neardist import cli

GOLDEN = Path(__file__).with_name("golden_analyze.json")
# Input files of the random sets, kept as files: `generate random` draws its
# points through np.cos and np.sin, whose float64 results may differ by an ulp
# between numpy builds. They were written by `generate random --n 200 --box 30
# --seed 1` and `--n 150 --box 26 --seed 2`, with interval families of their own.
PINNED = Path(__file__).with_name("golden_analyze_inputs.json")

# name -> `generate` arguments of the inputs built with plain arithmetic.
GENERATED = {
    "two-column": ["two-column", "--n", "40", "--k", "3", "--t", "400", "--eps", "0.5"],
    "remark2": ["remark2", "--n", "30", "--t1", "50", "--t2", "70"],
    "emp1": ["emp1", "--n", "40", "--k", "3", "--t", "60"],
    "problem3": ["problem3", "--n", "30", "--k", "3", "--t", "60"],
}
NAMES = [*GENERATED, "random-1", "random-2"]
SIZES = [(s, m) for s in (1, 2, 3, 4, 5) for m in sorted({1, s})]
CASES = [f"{name}-s{s}-m{m}" for name in NAMES for s, m in SIZES]


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def analyze_outputs(work: Path) -> dict[str, str]:
    """analysis.json text of every case, computed in the directory work."""
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    out = {}
    for name in NAMES:
        inputs = work / name
        if name in GENERATED:
            assert _quiet_main(["generate", *GENERATED[name], "--output-dir", str(inputs)]) == 0
        else:
            inputs.mkdir()
            for file, content in pinned[name].items():
                (inputs / file).write_text(json.dumps(content), encoding="utf-8")
        for s, m in SIZES:
            case = f"{name}-s{s}-m{m}"
            code = _quiet_main([
                "analyze", str(inputs / "points.json"), str(inputs / "intervals.json"),
                "--s", str(s), "--m", str(m), "--output-dir", str(work / case),
            ])
            assert code == 0, case
            out[case] = (work / case / "analysis.json").read_text(encoding="utf-8")
    return out


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return analyze_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", CASES)
def test_analysis_matches_golden(outputs, case):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert outputs[case] == golden[case]


def test_golden_covers_witnesses():
    # The matrix is only a regression net if it contains refined witnesses,
    # unrefined ones and misses.
    golden = {k: json.loads(v) for k, v in json.loads(GOLDEN.read_text()).items()}
    assert set(golden) == set(CASES)
    witnesses = [g["witness"] for g in golden.values()]
    assert any(w is not None and w["B2"] is not None for w in witnesses)
    assert any(w is not None and w["B2"] is None for w in witnesses)
    assert any(w is None for w in witnesses)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(json.dumps(analyze_outputs(Path(tmp)), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
