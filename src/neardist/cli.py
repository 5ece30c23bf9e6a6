"""Command-line front end: generate, count, check-hypothesis, verify, search,
analyze, diameter.

Each `cmd_*` only parses and computes, returning a `Result`; `run` alone
creates the output directory, writes the outputs and manifest.json, prints
the summary and maps errors to exit codes. Re-running a command reproduces
its outputs byte for byte (all randomness is seeded, manifests carry no
timestamps, output paths are relative to the output directory). --output-dir,
--format and --seed work before or after the subcommand; the later one wins.
A command imports the library modules beyond fileio and geometry when it
first uses them, so each start loads only the modules its command runs.

Exit codes: 0 success (for verify and check-hypothesis, the positive
verdict); 1 semantic negative (bound exceeded or near-sum check fails); 2
malformed input, invalid parameters (including sizes too large to allocate)
or an unusable output directory, with a one-line "error:" on stderr and no
traceback; 3 unsupported dimension.

Outputs are strict JSON or CSV of finite numbers. Float flags must be finite,
coordinates |x|, |y| <= 2**510 and interval ends t_k + alpha <= 2**511, so
squared distances stay finite. verify writes a one-point set's min_distance
as null.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from . import __version__
from .fileio import (
    InputFormatError,
    UnsupportedDimensionError,
    intervals_from_dict,
    load_intervals,
    load_json,
    load_point_set,
    save_point_set,
    write_json,
    write_text,
)
from .geometry import PointSet, check_hypothesis, diameter, verify_bound

# The names each command takes from the other library modules, imported with
# their module on first use, so a command loads only the modules it runs.
# Commands read them as `_cli.name`: a bare global would miss `__getattr__`
# before the first use, and a name patched on this module must be what runs.
_LAZY = {
    "augmented_chain": "constructions",
    "column_chain": "constructions",
    "random_separated": "constructions",
    "three_column": "constructions",
    "two_column": "constructions",
    "count_pairs": "counting",
    "TriangleCase": "graphs",
    "_PointGraph": "graphs",
    "angle_diagnostic": "graphs",
    "build_graph": "graphs",  # unused here; perfbench/traced.py wraps cli.build_graph by name
    "classify_label_triple": "graphs",
    "find_tripartite": "graphs",
    "homogenize": "graphs",
    "triangle_angle_bounds": "graphs",
    "SearchConfig": "search",
    "anneal": "search",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__package__}.{_LAZY[name]}"
    __import__(module)  # the import statement's hook, which `python -X importtime` times
    value = globals()[name] = getattr(sys.modules[module], name)
    return value


_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3


@dataclass(frozen=True)
class Result:
    """What one command computed; `run` writes it out.

    outputs maps file name to payload in manifest order: a dict is written
    as JSON, a str as text, a PointSet by its file suffix.
    """

    outputs: dict[str, dict | str | PointSet]
    params: dict
    input_paths: list[str]
    summary: str
    seed: int | None = None
    code: int = EXIT_OK


def cmd_generate(args) -> Result:
    name = args.construction
    needs = {"random": ["box"], "remark2": ["t1", "t2"]}.get(name, ["t"])
    if any(getattr(args, flag) is None for flag in needs):
        raise InputFormatError(f"{name} needs " + " and ".join(f"--{flag}" for flag in needs))
    points = f"points.{args.format}"
    seed = args.seed
    if name == "random":
        seed = 0 if seed is None else seed
        ps = _cli.random_separated(args.n, args.box, seed)
        params, predicted = {"n": args.n, "box": args.box, "seed": seed}, None
        outputs = {points: ps}
        summary = f"generated random n={ps.n} -> {Path(args.output_dir) / points}"
    else:
        if name == "two-column":
            built = _cli.two_column(args.n, args.k, args.t, args.eps)
        elif name == "remark2":
            built = _cli.three_column(args.n, args.t1, args.t2)
        elif name == "emp1":
            built = _cli.column_chain(args.n, args.k, args.t)
        else:
            built = _cli.augmented_chain(args.n, args.k, args.t)
        params, predicted = built.params, built.predicted_count
        outputs = {points: built.ps, "intervals.json": asdict(built.iv)}
        summary = (f"generated {name} n={built.ps.n} k={built.iv.k} "
                   f"predicted_count={predicted} -> {Path(args.output_dir)}")
    outputs["construction.json"] = {"name": name, "params": params, "predicted_count": predicted}
    return Result(outputs, params | {"construction": name}, [], summary, seed)


def cmd_count(args) -> Result:
    ps = load_point_set(args.points)
    iv = load_intervals(args.intervals)
    report = _cli.count_pairs(ps, iv, method=args.method)
    return Result(
        {"count.json": asdict(report)},
        {"method": args.method},
        [args.points, args.intervals],
        f"n={ps.n} total={report.total} method={report.method}",
    )


def cmd_check_hypothesis(args) -> Result:
    iv = load_intervals(args.intervals)
    report = check_hypothesis(iv, args.delta)
    return Result(
        {"hypothesis.json": asdict(report)},
        {"delta": args.delta},
        [args.intervals],
        f"k={iv.k} delta={args.delta} holds={report.holds} violations={len(report.violations)}",
        code=EXIT_OK if report.holds else EXIT_NEGATIVE,
    )


def cmd_verify(args) -> Result:
    ps = load_point_set(args.points)
    iv = load_intervals(args.intervals)
    report = verify_bound(ps, iv, args.delta, args.C)
    payload = asdict(report)
    if ps.n == 1:
        payload["min_distance"] = None  # inf: a single point has no pairs
    return Result(
        {"verify.json": payload},
        {"delta": args.delta, "C": args.C},
        [args.points, args.intervals],
        f"n={ps.n} separated={report.separated} hypothesis={report.hypothesis.holds} "
        f"count={report.count.total} bound={report.bound_value} within_bound={report.within_bound}",
        code=EXIT_OK if report.within_bound and report.hypothesis.holds else EXIT_NEGATIVE,
    )


def cmd_search(args) -> Result:
    if args.config:
        flags = [f"--{flag}" for flag in ("intervals", "n", "iterations", "seed", "restarts")
                 if getattr(args, flag) is not None]
        if flags:
            raise InputFormatError(f"search --config cannot be combined with {', '.join(flags)}")
        input_paths = [args.config]
        raw = load_json(args.config)
        names = {f.name for f in fields(_cli.SearchConfig)} - {"iv"}
        unknown = sorted(raw.keys() - names - {"intervals"})
        if unknown:
            raise InputFormatError(f"{args.config}: unknown key {', '.join(map(repr, unknown))}")
        iv = intervals_from_dict(raw.get("intervals"), f"{args.config}: intervals")
        try:
            config = _cli.SearchConfig(iv=iv, **{k: v for k, v in raw.items() if k != "intervals"})
        except TypeError as exc:
            raise InputFormatError(f"{args.config}: {exc}") from exc
    else:
        if args.intervals is None or args.n is None or args.iterations is None:
            raise InputFormatError("search needs --config, or --intervals with --n and --iterations")
        input_paths = [args.intervals]
        config = _cli.SearchConfig(
            n=args.n,
            iv=load_intervals(args.intervals),
            iterations=args.iterations,
            seed=args.seed or 0,
            restarts=1 if args.restarts is None else args.restarts,
        )
    initial = None
    if args.initial:
        input_paths.append(args.initial)
        initial = load_point_set(args.initial)

    result = _cli.anneal(config, initial)
    summary = {
        "best_count": result.best_count,
        "accepted_moves": result.accepted_moves,
        "rejected_moves": result.rejected_moves,
        "n": config.n,
        "iterations": config.iterations,
        "restarts": config.restarts,
        "seed": config.seed,
    }
    trajectory = "iteration,count\n" + "".join(f"{i},{c}\n" for i, c in result.trajectory)
    points = f"best_points.{args.format}"
    return Result(
        {points: result.best_ps, "search.json": summary, "trajectory.csv": trajectory},
        {"n": config.n, "iterations": config.iterations, "restarts": config.restarts},
        input_paths,
        f"n={config.n} best_count={result.best_count} accepted={result.accepted_moves}",
        config.seed,
    )


def cmd_analyze(args) -> Result:
    if not 1 <= args.m <= args.s:
        raise InputFormatError(f"analyze needs 1 <= m <= s, got m={args.m}, s={args.s}")
    _cli.triangle_angle_bounds(args.delta)
    ps = load_point_set(args.points)
    iv = load_intervals(args.intervals)
    graph = _cli._PointGraph(ps, iv)
    witness = _cli.find_tripartite(graph, args.s)
    payload: dict = {
        "n": graph.n,
        "edges": graph.edge_count,
        "s": args.s,
        "m": args.m,
        "delta": args.delta,
        "witness": None,
        "case": None,
        "angle_check": None,
    }
    if witness is not None:
        refined = _cli.homogenize(graph, witness, args.m)
        payload["witness"] = asdict(witness) | {"B2": None, "D2": None, "labels": None}
        if refined is not None:
            labels = {"x_b": refined.label_xb, "x_d": refined.label_xd, "b_d": refined.label_bd}
            payload["witness"] |= {"B2": refined.B2, "D2": refined.D2, "labels": labels}
            case = _cli.classify_label_triple(refined.label_xb, refined.label_xd, refined.label_bd)
            payload["case"] = case.value
            if case is _cli.TriangleCase.UNIQUE_MAX:
                triangle = (witness.x, refined.B2[0], refined.D2[0])
                payload["angle_check"] = asdict(_cli.angle_diagnostic(ps, triangle, iv, args.delta))
    return Result(
        {"analysis.json": payload},
        {"s": args.s, "m": args.m, "delta": args.delta},
        [args.points, args.intervals],
        f"n={graph.n} edges={graph.edge_count} "
        f"witness={'found' if witness is not None else 'none'}",
    )


def cmd_diameter(args) -> Result:
    ps = load_point_set(args.points)
    value = diameter(ps)
    return Result(
        {"diameter.json": {"n": ps.n, "diameter": value}},
        {},
        [args.points],
        f"n={ps.n} diameter={value!r}",
    )


def run(args) -> int:
    """Run a parsed command: compute, write outputs and manifest, print; exit code."""
    try:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        result = args.func(args)
        for name, payload in result.outputs.items():
            if isinstance(payload, PointSet):
                save_point_set(payload, out / name)
            elif isinstance(payload, str):
                write_text(out / name, payload)
            else:
                write_json(out / name, payload)
        manifest = {
            "command": args.command,
            "params": result.params,
            "input_paths": result.input_paths,
            "output_paths": list(result.outputs),
            "seed": result.seed,
            "tool_version": __version__,
        }
        write_json(out / "manifest.json", manifest)
    # Input read errors arrive as InputFormatError, so an OSError here is the
    # output directory; OverflowError comes from parameters too large for a
    # float, MemoryError from sizes such as --n too large to allocate.
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedDimensionError) else EXIT_INPUT
    print(result.summary)
    return result.code


def finite(text: str) -> float:
    """argparse type of the float flags: NaN and infinities fail at parse."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def seed(text: str) -> int:
    """argparse type of --seed: a negative seed fails at parse, for every command."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    # Every parser shares these three actions with SUPPRESSed defaults, so a
    # subcommand that omits a flag keeps the value given before it; main()
    # supplies the defaults.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output-dir", default=argparse.SUPPRESS, help="directory for outputs (default .)"
    )
    common.add_argument(
        "--format",
        choices=["json", "csv"],
        default=argparse.SUPPRESS,
        help="point file format (default json)",
    )
    common.add_argument("--seed", type=seed, default=argparse.SUPPRESS, help="random seed")
    parser = argparse.ArgumentParser(
        prog="neardist",
        description="Count, construct, verify, and search near-equal distances "
        "in separated planar point sets.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.set_defaults(func=func)
        return cmd

    gen = command("generate", cmd_generate, "generate a construction or random set")
    gen.add_argument(
        "construction", choices=["two-column", "remark2", "emp1", "problem3", "random"]
    )
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=2)
    gen.add_argument("--t", type=finite, default=None)
    gen.add_argument("--eps", type=finite, default=0.1)
    gen.add_argument("--t1", type=finite, default=None)
    gen.add_argument("--t2", type=finite, default=None)
    gen.add_argument("--box", type=finite, default=None)

    cnt = command("count", cmd_count, "count qualifying pairs")
    cnt.add_argument("points")
    cnt.add_argument("intervals")
    cnt.add_argument("--method", choices=["brute", "pruned"], default="brute")

    chk = command("check-hypothesis", cmd_check_hypothesis, "near-sum check on interval values")
    chk.add_argument("intervals")
    chk.add_argument("--delta", type=finite, required=True)

    ver = command("verify", cmd_verify, "count and compare against n^2/4 + C*n")
    ver.add_argument("points")
    ver.add_argument("intervals")
    ver.add_argument("--delta", type=finite, required=True)
    ver.add_argument("--C", type=finite, required=True)

    sea = command("search", cmd_search, "simulated annealing over point positions")
    sea.add_argument("--config", default=None, help="SearchConfig JSON file")
    sea.add_argument("--intervals", default=None)
    sea.add_argument("--n", type=int, default=None)
    sea.add_argument("--iterations", type=int, default=None)
    sea.add_argument("--restarts", type=int, default=None)
    sea.add_argument("--initial", default=None, help="starting point set")

    ana = command("analyze", cmd_analyze, "extract tripartite witnesses")
    ana.add_argument("points")
    ana.add_argument("intervals")
    ana.add_argument("--s", type=int, default=2)
    ana.add_argument("--m", type=int, default=1)
    ana.add_argument("--delta", type=finite, default=0.1)

    dia = command("diameter", cmd_diameter, "maximum pairwise distance")
    dia.add_argument("points")

    return parser


def main(argv: list[str] | None = None) -> int:
    defaults = argparse.Namespace(output_dir=".", format="json", seed=None)
    return run(build_parser().parse_args(argv, defaults))


if __name__ == "__main__":
    sys.exit(main())
