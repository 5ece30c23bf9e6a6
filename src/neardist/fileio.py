"""JSON and CSV serialization for point sets, interval families, and reports.

Point sets: {"dim": 2, "points": [[x, y], ...]} in JSON, or one "x,y" row per
point in CSV. Interval families: {"alpha": a, "t": [...]}. Floats are written
with Python's shortest round-trip representation, so JSON round-trips are
bit-exact and CSV carries full precision. All writes are atomic (temp file
plus rename), and JSON is written strictly: a NaN or infinity raises
ValueError instead of producing a non-standard token.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

from .geometry import IntervalFamily, PointSet

__all__ = [
    "InputFormatError",
    "UnsupportedDimensionError",
    "load_point_set",
    "save_point_set",
    "load_json",
    "load_intervals",
    "intervals_from_dict",
    "write_json",
    "write_text",
]


# A plain ASCII decimal literal: Python's float() also takes digit separators
# ("1_0"), non-ASCII digits, "inf" and "nan".
_CSV_NUMBER = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


class InputFormatError(ValueError):
    """Malformed or semantically invalid input file."""


class UnsupportedDimensionError(ValueError):
    """Structurally valid input in an unsupported dimension (only dim 2 works)."""


def write_text(path: str | Path, text: str) -> None:
    """Atomically write text: temp file in the target directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str | Path, payload: dict) -> None:
    write_text(path, json.dumps(payload, indent=2, allow_nan=False) + "\n")


def load_json(path: str | Path) -> dict:
    """Parse a JSON file that must hold an object; InputFormatError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    # ValueError: JSONDecodeError, UnicodeDecodeError and an integer literal
    # over the interpreter's digit limit. RecursionError: arrays or objects
    # nested too deep for the decoder.
    except (OSError, ValueError, RecursionError) as exc:
        raise InputFormatError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise InputFormatError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def load_point_set(path: str | Path) -> PointSet:
    """Load a point set from .json or .csv (by suffix)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _load_point_set_csv(path)
    payload = load_json(path)
    dim = payload.get("dim")
    if type(dim) not in (int, float):
        raise InputFormatError(f"{path}: 'dim' must be a number, got {dim!r}")
    if dim != 2:
        raise UnsupportedDimensionError(f"{path}: only dim 2 is supported, got {dim!r}")
    points = payload.get("points")
    if not isinstance(points, list) or not points:
        raise InputFormatError(f"{path}: 'points' must be a non-empty list")
    # Exact types, so that JSON true/false (bool subclasses int) are rejected too.
    if {type(p) for p in points} != {list} or not {
        type(v) for p in points for v in p
    } <= {int, float}:
        raise InputFormatError(f"{path}: every point must be an array of numbers")
    if {len(p) for p in points} != {2}:
        raise UnsupportedDimensionError(f"{path}: every point must have 2 coordinates")
    try:
        return PointSet(points)
    except (ValueError, OverflowError) as exc:
        raise InputFormatError(f"{path}: bad point data: {exc}") from exc


def _load_point_set_csv(path: Path) -> PointSet:
    rows: list[tuple[float, float]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = [part.strip(" \t") for part in line.split(",")]
                bad = [part for part in parts if not _CSV_NUMBER.fullmatch(part)]
                if len(parts) != 2:
                    # A row of one number, or of three or more, is a point in
                    # another dimension, as in JSON.
                    if not bad:
                        raise UnsupportedDimensionError(
                            f"{path}:{line_no}: only 2 coordinates are supported, got {len(parts)}"
                        )
                    raise InputFormatError(
                        f"{path}:{line_no}: expected 'x,y', got {line!r}"
                    )
                if bad:
                    raise InputFormatError(
                        f"{path}:{line_no}: bad coordinate {bad[0]!r}, expected a decimal number"
                    )
                rows.append((float(parts[0]), float(parts[1])))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise InputFormatError(f"{path}: no points")
    try:
        return PointSet(rows)
    except ValueError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def save_point_set(ps: PointSet, path: str | Path) -> None:
    """Write a point set as .json or .csv (by suffix)."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        lines = [f"{float(x)!r},{float(y)!r}" for x, y in ps.coords]
        write_text(path, "\n".join(lines) + "\n")
    else:
        write_json(path, {"dim": 2, "points": ps.coords.tolist()})


def load_intervals(path: str | Path) -> IntervalFamily:
    return intervals_from_dict(load_json(path), path)


def intervals_from_dict(payload: object, source: str | Path) -> IntervalFamily:
    """Interval family from a parsed {"alpha": a, "t": [...]}; source names it in errors."""
    if not isinstance(payload, dict) or not isinstance(payload.get("t"), list):
        raise InputFormatError(f"{source}: expected an object whose 't' is a list")
    values = payload["t"] + [payload.get("alpha")]
    # Exact types, as for points: no bools, strings or nulls.
    if not {type(v) for v in values} <= {int, float}:
        raise InputFormatError(f"{source}: 't' values and 'alpha' must be numbers")
    try:
        return IntervalFamily([float(v) for v in payload["t"]], float(payload["alpha"]))
    except (ValueError, OverflowError) as exc:
        raise InputFormatError(f"{source}: bad interval family: {exc}") from exc
