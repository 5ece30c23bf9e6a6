#!/usr/bin/env python3
"""Benchmark of the neardist command line, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each workload runs the real CLI (`python -m neardist ...`) in child processes,
one command at a time (closed loop, single client). With `--trace 0` the run
reports the end-to-end metrics: command wall time and set-up time, both scaled
to a reference host speed by a calibration job run beside them, and peak RSS.
With `--trace 1` it reports per-layer metrics from a traced run (`traced.py`)
of the same CLI commands, with spans around the public functions of each
module.
Every command's outputs are checked: exit code, no traceback, strict JSON,
byte-identical across repetitions, and agreement with a reference answer
computed by `workloads.py`. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

This process imports only the standard library. On Linux a child's
ru_maxrss includes the parent's own peak RSS at spawn time, so the numpy
work (inputs, references, tracing) runs in helper processes and this one
stays small enough not to mask the peak memory of the commands it measures.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FAMILY = [3.0, 13.0, 45.0, 150.0, 500.0]

# Why each workload exists: each layer an optimisation would target does most
# of the work in one workload and little or none in another (see README.md).
WORKLOADS = {
    # O(n^2) geometry scans (min distance, diameter) dominate; counting is minor.
    "verify-uniform": {
        "command": "verify", "layout": "grid", "n": 16000,
        "t": FAMILY, "alpha": 1.0, "delta": 0.2, "C": 100.0,
    },
    # Pruned counting dominates on clustered input, with a 1.4 GB peak.
    "verify-columns": {
        "command": "verify", "layout": "columns", "n": 12000,
        "k": 5, "eps": 0.1, "delta": 0.2, "C": 4.0,
    },
    # label_pairs and the graph build; no count_pairs and no geometry scans.
    "analyze-uniform": {
        "command": "analyze", "layout": "grid", "n": 10000,
        "t": FAMILY, "alpha": 1.0, "s": 3, "m": 2, "delta": 0.1,
    },
    # The annealing step and interpreter start, over a batch of search seeds.
    "search-small": {
        "command": "search", "n": 8, "iterations": 10000,
        "t": [50.0], "alpha": 1.0, "batch": 10,
    },
}

MIN_REPS = 4  # repetitions of a command per run: a median, and a byte-identity check
TRACE_REPS = 2  # untraced repetitions beside a traced one, for the byte-identity check
SETUP_REPS = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s, hung commands included
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

SETUP_CODE = (
    "import sys\n"
    "import neardist\n"
    "from neardist.fileio import load_intervals, load_point_set\n"
    "for path in sys.argv[1:]:\n"
    "    (load_intervals if path.endswith('intervals.json') else load_point_set)(path)\n"
)

# Host-speed calibration: a fixed job that touches nothing of neardist, in the
# same mix as the commands (interpreter start, numpy import, a pure-Python
# loop, memory-bound numpy passes). The shared 2-vCPU host this was sized on
# slows every process down, in bursts of seconds and in states that last
# minutes, by up to 1.7x; CPU time from wait4 moves with wall time, so it is
# no steadier. So the end-to-end times are the fastest repetition of a run
# (bursts only add time) times CAL_REF_S / (fastest calibration of the run):
# seconds on a host where the calibration job takes CAL_REF_S at best.
CAL_REF_S = 0.25
CAL_CODE = (
    "import numpy as np\n"
    "x = 0\n"
    "for i in range(600_000):\n"
    "    x += i\n"
    "a = np.arange(4_000_000, dtype=np.float64)\n"
    "for _ in range(6):\n"
    "    a = a * 1.0000001 + 1.0\n"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing source, failed helper)."""


def source_dir(root: Path) -> Path:
    """Absolute `src` directory of the neardist package in this checkout.

    Located with find_spec, which reports the future `neardist.__file__`
    without importing numpy into this process. A neardist installed elsewhere
    is refused: the benchmark measures the checkout it sits in.
    """
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.find_spec("neardist")
    finally:
        sys.path.remove(str(src))
    if spec is None or spec.origin is None:
        raise BenchError(f"no neardist package under {src}")
    origin = Path(spec.origin).resolve()
    if origin.parent.parent != src:
        raise BenchError(f"neardist resolves to {origin}, not to the checkout's {src}")
    return src


def src_line_count(src: Path) -> int:
    """Non-blank lines of the package's Python files (informational)."""
    total = 0
    for path in sorted((src / "neardist").rglob("*.py")):
        total += sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    return total


@dataclass
class Child:
    """Outcome of one child process: exit code, start, wall time, peak RSS, captured output."""

    code: int
    start: float
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


class Context:
    """Paths and environment shared by every child of one benchmark process."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.src = source_dir(root)
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.deadline = deadline

    def spawn(self, argv: list[str], cwd: Path, log: Path) -> Child:
        """Run argv to completion; wall time spans process start to exit.

        Peak RSS comes from os.wait4 on this child alone. The child is killed
        when the run deadline passes, and on any exception before it is reaped.
        """
        log.parent.mkdir(parents=True, exist_ok=True)
        out_path, err_path = log.with_suffix(".out"), log.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
        reaped = timed_out = False
        pidfd = os.pidfd_open(proc.pid)
        try:
            # Until wait4 reaps it, the pid cannot be reused, so the kill is safe.
            exited, _, _ = select.select([pidfd], [], [], max(0.0, self.deadline - time.monotonic()))
            if not exited:
                timed_out = True
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            reaped = True
        finally:
            os.close(pidfd)
            if not reaped:
                proc.kill()
                proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            code=proc.returncode,
            start=start,
            wall_s=wall,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
            timed_out=timed_out,
        )

    def helper(self, script: str, args: list[str], work: Path, log_name: str) -> Child:
        """Run a helper script of the benchmark; BenchError unless it succeeds."""
        child = self.spawn([sys.executable, str(HERE / script), *args], work, work / "logs" / log_name)
        if child.code != 0:
            raise BenchError(f"{script} {' '.join(args)} failed ({child.code}):\n{child.stderr}")
        return child


def search_seeds(spec: dict, seed: int) -> list[int]:
    """The batch of search seeds derived from the workload seed (seed 0: 0..9)."""
    return [seed * spec["batch"] + i for i in range(spec["batch"])]


def command_batch(spec: dict, seed: int) -> list[list[str]]:
    """CLI arguments of the commands that make up one repetition of a workload."""
    cmd = spec["command"]
    if cmd == "verify":
        return [["verify", "in/points.json", "in/intervals.json",
                 "--delta", repr(spec["delta"]), "--C", repr(spec["C"])]]
    if cmd == "analyze":
        return [["analyze", "in/points.json", "in/intervals.json",
                 "--s", str(spec["s"]), "--m", str(spec["m"]), "--delta", repr(spec["delta"])]]
    return [["search", "--intervals", "in/intervals.json", "--n", str(spec["n"]),
             "--iterations", str(spec["iterations"]), "--seed", str(s)]
            for s in search_seeds(spec, seed)]


def input_files(spec: dict) -> list[str]:
    files = ["in/intervals.json"]
    if spec["command"] != "search":
        files.insert(0, "in/points.json")
    return files


def prepare(ctx: Context, name: str, spec: dict, seed: int) -> Path:
    """Fresh work directory with the workload's inputs and reference answer."""
    work = ctx.root / WORK_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    full = dict(spec, name=name, seed=seed)
    if spec["command"] == "search":
        full["search_seeds"] = search_seeds(spec, seed)
    (work / "spec.json").write_text(json.dumps(full), encoding="utf-8")
    ctx.helper("workloads.py", ["gen", str(work)], work, "gen")
    return work


def _strict_json(text: str):
    def reject(token: str):
        raise ValueError(f"non-finite number {token}")

    return json.loads(text, parse_constant=reject)


def _read_outputs(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def _command_problems(child: Child, outputs: dict[str, bytes], first: dict[str, bytes] | None) -> list[str]:
    """Failure reasons of one command run that need no reference answer."""
    problems = []
    if child.timed_out:
        problems.append("timed out")
    if child.code != 0:
        problems.append(f"exit code {child.code}")
    if "Traceback (most recent call last)" in child.stderr:
        problems.append("traceback on stderr")
    if not outputs:
        problems.append("no output files")
    for fname, data in outputs.items():
        if fname.endswith(".json"):
            try:
                _strict_json(data.decode("utf-8"))
            except ValueError as exc:
                problems.append(f"{fname}: not strict JSON: {exc}")
    if first is not None and outputs != first:
        problems.append("outputs differ from the first repetition")
    return problems


class Repetitions:
    """Every repetition of a workload's command batch, with per-command problems."""

    def __init__(self):
        self.walls: list[list[float]] = []  # [repetition][command]
        self.rss: list[list[float]] = []
        self.problems: list[list[list[str]]] = []
        self.first: list[dict[str, bytes]] = []

    @property
    def attempted(self) -> int:
        return sum(len(rep) for rep in self.problems)

    @property
    def failed(self) -> int:
        return sum(1 for rep in self.problems for p in rep if p)

    def wall_s(self, stat=min) -> float:
        """Total over the batch of each command's fastest (or `stat`) wall time, unscaled."""
        return sum(stat(per_cmd) for per_cmd in zip(*self.walls))

    def peak_rss_mb(self) -> float:
        """Largest over the batch of each command's median peak RSS."""
        return max(statistics.median(per_cmd) for per_cmd in zip(*self.rss))

    def run(self, ctx: Context, work: Path, batch: list[list[str]], traced: bool = False) -> list[Child]:
        """One repetition of the batch; traced, each command runs under traced.py.

        A traced command writes its spans to spans/r<R>-b<I>.json in `work`.
        """
        r = len(self.walls)
        walls, rss, problems, children = [], [], [], []
        for i, args in enumerate(batch):
            out = work / "out" / f"r{r}" / f"b{i}"
            out.mkdir(parents=True)
            cli_args = ["--output-dir", str(out.relative_to(work)), *args]
            if traced:
                argv = [sys.executable, str(HERE / "traced.py"), "top", str(work), f"spans/r{r}-b{i}.json",
                        "--", *cli_args]
            else:
                argv = [sys.executable, "-m", "neardist", *cli_args]
            child = ctx.spawn(argv, work, work / "logs" / f"r{r}-b{i}")
            outputs = _read_outputs(out)
            problems.append(_command_problems(child, outputs, self.first[i] if r else None))
            if r == 0:
                self.first.append(outputs)
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            children.append(child)
        self.walls.append(walls)
        self.rss.append(rss)
        self.problems.append(problems)
        return children

    def check_reference(self, ctx: Context, work: Path) -> None:
        """Compare the first repetition's outputs with the reference answer.

        A command whose outputs disagree fails in every repetition that
        produced the same bytes; the others have failed the identity check.
        """
        dirs = [f"out/r0/b{i}" for i in range(len(self.first))]
        verdicts = json.loads(ctx.helper("workloads.py", ["check", str(work), *dirs], work, "check").stdout)
        for i, wrong in enumerate(verdicts):
            if not wrong:
                continue
            for r, rep in enumerate(self.problems):
                if r == 0 or not rep[i]:
                    rep[i].extend(f"reference: {w}" for w in wrong)


def probe(ctx: Context, work: Path, argv: list[str], log: str) -> float:
    """Wall time of a benchmark-side child (set-up probe or calibration) that must succeed."""
    child = ctx.spawn([sys.executable, *argv], work, work / "logs" / log)
    if child.code != 0:
        raise BenchError(f"{log} failed ({child.code}):\n{child.stderr}")
    return child.wall_s


class Probes:
    """Host-speed calibrations and set-up probes, a pair before and after every repetition."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.cal: list[float] = []
        self.setup: list[float] = []

    def take(self, ctx: Context, work: Path) -> None:
        i = len(self.cal)
        self.cal.append(probe(ctx, work, ["-c", CAL_CODE], f"cal{i}"))
        self.setup.append(probe(ctx, work, ["-c", SETUP_CODE, *input_files(self.spec)], f"setup{i}"))

    def scale(self) -> float:
        """Factor from this run's host speed to the reference speed: fastest calibration."""
        return CAL_REF_S / min(self.cal)


def repeat_commands(
    ctx: Context, work: Path, spec: dict, seed: int, seconds: float, min_reps: int, probes: Probes | None = None,
    check: bool = True,
) -> Repetitions:
    """Closed loop: one command at a time for `seconds`, at least `min_reps` times.

    With `probes`, a calibration and a set-up probe run before each
    repetition and after the last (and at least SETUP_REPS of each in all),
    so that every repetition lies between two calibrations. With `check`, the outputs are compared
    with the reference answer at the end.
    """
    batch = command_batch(spec, seed)
    reps = Repetitions()
    end = time.monotonic() + seconds
    while len(reps.walls) < min_reps or time.monotonic() < end:
        if time.monotonic() >= ctx.deadline:
            break
        if probes is not None:
            probes.take(ctx, work)
        reps.run(ctx, work, batch)
    if probes is not None:
        probes.take(ctx, work)
        while len(probes.setup) < SETUP_REPS:
            probes.take(ctx, work)
    if check:
        reps.check_reference(ctx, work)
    return reps


def end_to_end(ctx: Context, work: Path, spec: dict, seed: int, seconds: float) -> tuple[Repetitions, dict, dict]:
    """Scaled wall and set-up times, peak RSS; the raw medians go to the summary only."""
    probes = Probes(spec)
    reps = repeat_commands(ctx, work, spec, seed, seconds, MIN_REPS, probes)
    metrics = {
        "wall_s": (reps.wall_s() * probes.scale(), "s", len(reps.walls)),
        "setup_s": (min(probes.setup) * probes.scale(), "s", len(probes.setup)),
        "peak_rss_mb": (reps.peak_rss_mb(), "MB", len(reps.rss)),
    }
    info = {
        "raw_wall_median_s": (reps.wall_s(statistics.median), "s", len(reps.walls)),
        "raw_setup_median_s": (statistics.median(probes.setup), "s", len(probes.setup)),
        "calibration_median_s": (statistics.median(probes.cal), "s", len(probes.cal)),
        "samples": {"wall": reps.walls, "cal": probes.cal, "setup": probes.setup},
    }
    if spec["command"] == "search":
        best = []
        for out in reps.first:
            try:
                best.append(_strict_json(out["search.json"].decode("utf-8"))["best_count"])
            except (KeyError, ValueError):
                pass  # a failed command, already counted in `failed`
        if best:
            info["best_count_mean"] = (statistics.mean(best), "count", len(best))
    return reps, metrics, info


def _span_totals(records: list[dict]) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Summed durations and summed counts per span name."""
    seconds: dict[str, float] = {}
    counts: dict[str, dict[str, float]] = {}
    for rec in records:
        for span in rec["spans"]:
            name = span["name"]
            seconds[name] = seconds.get(name, 0.0) + span["end"] - span["start"]
            bucket = counts.setdefault(name, {})
            for key, value in span["counts"].items():
                bucket[key] = bucket.get(key, 0) + value
    return seconds, counts


def _child_seconds(records: list[dict], parent: str) -> float:
    return sum(sp["end"] - sp["start"] for rec in records for sp in rec["spans"] if sp["parent"] == parent)


def per_layer(ctx: Context, work: Path, spec: dict, seed: int) -> tuple[Repetitions, dict, list[dict]]:
    """Untraced commands for the output checks, one traced repetition, then the peaks.

    The traced repetition runs each command of the batch through traced.py;
    its outputs take part in the same checks as the untraced ones.
    """
    batch = command_batch(spec, seed)
    reps = repeat_commands(ctx, work, spec, seed, 0.0, TRACE_REPS, check=False)
    r = len(reps.walls)
    children = reps.run(ctx, work, batch, traced=True)
    reps.check_reference(ctx, work)
    records, residual, overhead = [], 0.0, 0.0
    for i, child in enumerate(children):
        path = work / "spans" / f"r{r}-b{i}.json"
        if not path.is_file():
            reps.problems[r][i].append("traced run wrote no spans")
            continue
        rec = json.loads(path.read_text(encoding="utf-8"))
        records.append(rec)
        top_level = sum(sp["end"] - sp["start"] for sp in rec["spans"] if sp["parent"] is None)
        residual += rec["main_end"] - child.start - top_level
        overhead += rec["span_cost_s"] * len(rec["spans"])
    peaks: dict[str, float] = {}
    if spec["command"] != "search":
        ctx.helper("traced.py", ["peaks", str(work), "spans/peaks.json"], work, "traced-peaks")
        peaks = json.loads((work / "spans" / "peaks.json").read_text(encoding="utf-8"))["peaks_mb"]

    sec, cnt = _span_totals(records)

    def s(name: str) -> float:
        return sec.get(name, 0.0)

    def c(name: str, key: str) -> float:
        return cnt.get(name, {}).get(key, 0)

    iterations = c("search.anneal", "iterations")
    runs = len(records) if spec["command"] == "search" else 0
    values = {
        "fileio.load_s": (s("fileio.load"), "s"),
        "fileio.bytes_read": (c("fileio.load", "bytes"), "bytes"),
        "fileio.write_s": (s("fileio.write"), "s"),
        "fileio.bytes_written": (c("fileio.write", "bytes"), "bytes"),
        "geometry.verify_bound_s": (s("geometry.verify_bound"), "s"),
        "geometry.verify_bound_self_s": (
            s("geometry.verify_bound") - _child_seconds(records, "geometry.verify_bound"), "s"),
        "geometry.hypothesis_s": (s("geometry.hypothesis"), "s"),
        "geometry.min_distance_s": (s("geometry.min_distance"), "s"),
        "geometry.diameter_s": (s("geometry.diameter"), "s"),
        "counting.count_s": (s("counting.count"), "s"),
        "counting.count_peak_mb": (peaks.get("counting.count", 0.0), "MB"),
        "counting.qualifying_pairs": (c("counting.count", "pairs") + c("counting.label_pairs", "pairs"), "count"),
        "counting.label_pairs_s": (s("counting.label_pairs"), "s"),
        "counting.label_pairs_peak_mb": (peaks.get("counting.label_pairs", 0.0), "MB"),
        "graphs.build_graph_s": (s("graphs.build_graph"), "s"),
        "graphs.build_graph_self_s": (
            s("graphs.build_graph") - _child_seconds(records, "graphs.build_graph"), "s"),
        "graphs.build_graph_peak_mb": (peaks.get("graphs.build_graph", 0.0), "MB"),
        "graphs.edges": (c("graphs.build_graph", "edges"), "count"),
        "graphs.witness_s": (s("graphs.witness"), "s"),
        "graphs.homogenize_s": (s("graphs.homogenize"), "s"),
        "search.anneal_s": (s("search.anneal"), "s"),
        "search.step_us": (s("search.anneal") / iterations * 1e6 if iterations else 0.0, "us"),
        "search.acceptance_ratio": (c("search.anneal", "accepted") / iterations if iterations else 0.0, "ratio"),
        "search.best_count_mean": (c("search.anneal", "best_count") / runs if runs else 0.0, "count"),
        "cli.residual_s": (residual, "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    metrics = {name: (value, unit, 1) for name, (value, unit) in values.items()}
    return reps, metrics, records


def measure(ctx: Context, work: Path, spec: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run a prepared workload; the result object plus printable details."""
    spans, info = None, {}
    if trace:
        reps, metrics, spans = per_layer(ctx, work, spec, seed)
    else:
        reps, metrics, info = end_to_end(ctx, work, spec, seed, seconds)
    return {
        "reps": reps,
        "metrics": metrics,
        "info": info,
        "spans": spans,
        "result": {
            "correct": reps.failed == 0,
            "attempted": reps.attempted,
            "failed": reps.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        },
    }


def report(ctx: Context, name: str, seed: int, outcome: dict) -> None:
    """Print the human-readable summary, then the result line."""
    reps = outcome["reps"]
    print(f"workload {name} seed {seed}")
    for metric, (value, unit, samples) in outcome["metrics"].items():
        print(f"  {metric:32s} {value:14.6f} {unit:6s} (n={samples})")
    print(f"  {'error_rate':32s} {reps.failed / max(1, reps.attempted):14.6f} {'ratio':6s} "
          f"(failed {reps.failed} of {reps.attempted} commands)")
    for r, rep in enumerate(reps.problems):
        for i, problems in enumerate(rep):
            for p in problems:
                print(f"  FAILED repetition {r} command {i}: {p}")
    info = dict(outcome["info"])
    samples = info.pop("samples", None)
    for metric, (value, unit, n) in info.items():
        print(f"  ({metric:30s} {value:14.6f} {unit:6s} (n={n}), informational)")
    if samples:
        print("  samples " + json.dumps(samples))
    print(f"  src_nonblank_lines {src_line_count(ctx.src)} (informational, not gated)")
    if outcome["spans"] is not None:
        out = ctx.root / OUT_DIR
        out.mkdir(exist_ok=True)
        (out / f"spans-{name}.json").write_text(json.dumps(outcome["spans"], indent=1), encoding="utf-8")
        print(f"  spans written to {OUT_DIR}/spans-{name}.json")
    print(json.dumps(outcome["result"]))
    sys.stdout.flush()


def run_workload(ctx: Context, name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    work = prepare(ctx, name, spec, seed)
    try:
        return measure(ctx, work, spec, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            ctx = Context(ROOT, time.monotonic() + RUN_DEADLINE_S)
            report(ctx, name, args.seed, run_workload(ctx, name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
