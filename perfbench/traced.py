"""Traced run of one workload command: the real CLI, with spans around its public calls.

    python3 perfbench/traced.py top WORK SPANS -- CLI-ARGS...  # neardist.cli.main(CLI-ARGS) in WORK
    python3 perfbench/traced.py peaks WORK SPANS               # tracemalloc peaks of the heavy calls

`top` replaces the public functions that `neardist.cli` imported (the fileio
loads and writes, verify_bound, build_graph, find_tripartite, homogenize,
angle_diagnostic, anneal) and the public functions those call
(check_hypothesis, min_pairwise_distance, count_pairs and diameter under
verify_bound; label_pairs under build_graph) with span-timing wrappers, then
runs `neardist.cli.main` with the command's own arguments. So the spans
follow the real command, and a layer's self time is its span minus its child
spans, all timed by one clock in one process. After the command it measures
the wrapper's own cost per span, for `trace.overhead_s`.

`peaks` takes each heavy call's peak traced memory with tracemalloc, in a
process of its own so that tracemalloc does not inflate the timed spans.

Both write SPANS (relative to WORK) as JSON: {"spans": [{name, start, end, parent,
run, counts}], "exit_code", "main_end", "span_cost_s"} or {"peaks_mb"}, where
main_end is time.monotonic() when the command returned: on Linux the same
clock as the parent's, so the parent can time process start to command end.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from pathlib import Path

import neardist.cli as cli
import neardist.counting as counting
import neardist.geometry as geometry
import neardist.graphs as graphs
from neardist.fileio import load_intervals, load_point_set

OVERHEAD_CALLS = 2000


class Tracer:
    """In-memory spans of one traced process; a span's parent is the span open around it."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self._open: list[str] = []

    def wrap(self, fn, name: str, counts=None):
        """fn timed in a span; counts(args, result) gives the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = {"name": name, "parent": self._open[-1] if self._open else None, "run": self.run,
                      "counts": {}}
            self._open.append(name)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()
                self.spans.append(record)
            if counts:
                record["counts"] = counts(args, result)
            return result

        return traced


def _bytes_at(index: int):
    return lambda args, result: {"bytes": os.path.getsize(args[index])}


def _anneal_counts(args, result) -> dict:
    config = args[0]
    return {"iterations": config.iterations * config.restarts,
            "accepted": result.accepted_moves, "best_count": result.best_count}


# (module, attribute, span name, counts). Patching a module's global reaches
# every call made through that module; verify_bound imports count_pairs from
# `counting` when it is called, so that one is patched at its source.
WRAPPED = [
    (cli, "load_point_set", "fileio.load", _bytes_at(0)),
    (cli, "load_intervals", "fileio.load", _bytes_at(0)),
    (cli, "write_json", "fileio.write", _bytes_at(0)),
    (cli, "write_text", "fileio.write", _bytes_at(0)),
    (cli, "save_point_set", "fileio.write", _bytes_at(1)),
    (cli, "verify_bound", "geometry.verify_bound", None),
    (geometry, "check_hypothesis", "geometry.hypothesis", None),
    (geometry, "min_pairwise_distance", "geometry.min_distance", None),
    (counting, "count_pairs", "counting.count", lambda args, result: {"pairs": result.total}),
    (geometry, "diameter", "geometry.diameter", None),
    (cli, "build_graph", "graphs.build_graph", lambda args, result: {"edges": result.edge_count}),
    (graphs, "label_pairs", "counting.label_pairs", lambda args, result: {"pairs": len(result)}),
    (cli, "find_tripartite", "graphs.witness", None),
    (cli, "homogenize", "graphs.homogenize", None),
    (cli, "angle_diagnostic", "graphs.angle_diagnostic", None),
    (cli, "anneal", "search.anneal", _anneal_counts),
]


def span_cost() -> float:
    """Seconds one wrapped call costs beyond the call itself, measured here."""
    probe = Tracer("overhead")
    bare = lambda: None  # noqa: E731
    wrapped = probe.wrap(bare, "probe")
    start = time.perf_counter()
    for _ in range(OVERHEAD_CALLS):
        bare()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(OVERHEAD_CALLS):
        wrapped()
    return max(0.0, (time.perf_counter() - start - plain) / OVERHEAD_CALLS)


def top(run: str, cli_args: list[str]) -> dict:
    tr = Tracer(run)
    for module, attr, name, counts in WRAPPED:
        setattr(module, attr, tr.wrap(getattr(module, attr), name, counts))
    code = cli.main(cli_args)
    main_end = time.monotonic()
    return {"spans": tr.spans, "exit_code": code, "main_end": main_end, "span_cost_s": span_cost()}


def _peak_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def peaks(spec: dict) -> dict:
    ps = load_point_set("in/points.json")
    iv = load_intervals("in/intervals.json")
    if spec["command"] == "verify":
        return {"peaks_mb": {"counting.count": _peak_mb(counting.count_pairs, ps, iv, "pruned")}}
    return {"peaks_mb": {"counting.label_pairs": _peak_mb(counting.label_pairs, ps, iv),
                         "graphs.build_graph": _peak_mb(graphs.build_graph, ps, iv)}}


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    phase, work, spans = argv[0], Path(argv[1]), Path(argv[2])
    os.chdir(work)
    spec = json.loads(Path("spec.json").read_text(encoding="utf-8"))
    if phase == "top" and argv[3:4] == ["--"]:
        record = top(f"{spec['name']}-{spec['seed']}-{spans.stem}", argv[4:])
    elif phase == "peaks" and len(argv) == 3:
        record = peaks(spec)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.write_text(json.dumps(record), encoding="utf-8")
    return record.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
