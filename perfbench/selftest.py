"""Self-test of the benchmark at tiny sizes: python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, prints exactly the metrics that
    BENCHMARK.json names, each with its unit, in the result line and in the
    human-readable summary, with no failed command;
  * a deliberately wrong reference value marks the commands as failed, so
    the output checks are live;
  * in a directory that holds only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result.
Exits 0 when every check passes. Takes under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time

import run

TINY = {
    "verify-uniform": {"n": 400},
    "verify-columns": {"n": 300},
    "analyze-uniform": {"n": 600, "s": 2, "m": 1},
    "search-small": {"iterations": 300, "batch": 2},
}
SEED = 0


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_printed_metrics(contract: dict) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in contract[section]}
        for name in run.WORKLOADS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
            lines = out.getvalue().strip().splitlines()
            result = json.loads(lines[-1])
            where = f"{name} trace {trace}"
            if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: exit {code}, result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{where}: commands failed:\n" + "\n".join(lines))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                fail(f"{where}: metrics {got} != {wanted}")
            for metric, unit in wanted.items():
                value = result["metrics"][metric]["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    fail(f"{where}: {metric} = {value!r}")
                if not any(line.split()[:1] == [metric] and f" {unit} " in line for line in lines):
                    fail(f"{where}: {metric} [{unit}] missing from the summary")
            print(f"ok   {where}: {len(wanted)} metrics with units, {result['attempted']} commands")


def check_wrong_reference() -> None:
    name = "verify-columns"
    ctx = run.Context(run.ROOT, time.monotonic() + run.RUN_DEADLINE_S)
    work = run.prepare(ctx, name, run.WORKLOADS[name], SEED)
    try:
        expected_path = work / "expected.json"
        expected = json.loads(expected_path.read_text(encoding="utf-8"))
        expected["total"] += 1
        expected_path.write_text(json.dumps(expected), encoding="utf-8")
        outcome = run.measure(ctx, work, run.WORKLOADS[name], SEED, 0.0, False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = outcome["result"]
    if result["correct"] or result["failed"] != result["attempted"]:
        fail(f"a wrong reference count went unnoticed: {result}")
    print(f"ok   wrong reference count: failed {result['failed']} of {result['attempted']} commands")


def check_without_source() -> None:
    bare = run.ROOT / run.WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "search-small",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"without src/ the benchmark exited {proc.returncode} and printed {proc.stdout!r}")
    print(f"ok   without src/: exit {proc.returncode}, {proc.stderr.strip().splitlines()[-1]}")


def main() -> int:
    for name, sizes in TINY.items():
        run.WORKLOADS[name] = dict(run.WORKLOADS[name], **sizes)
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_printed_metrics(contract)
    check_wrong_reference()
    check_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
