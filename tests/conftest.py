"""Shared test helpers: the command line in a child process, and the pair
walk forced onto its image pass."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import neardist
from neardist import counting, geometry

# Absolute, so the child finds the package whatever its cwd: a relative
# PYTHONPATH such as `src` stops resolving once the child runs in tmp_path.
SRC_DIR = str(Path(neardist.__file__).resolve().parent.parent)


def run_cli(*args, cwd):
    """Run `python -m neardist ARGS` in cwd with this package importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "neardist", *map(str, args)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def level_side(coords, level):
    """The tree's cell side at the given level, where the image pass is
    priced: the power of two 2**(e - level), for an extent in [2**(e - 1), 2**e)."""
    extent = max(np.ptp(coords[:, 0]), np.ptp(coords[:, 1]), geometry._MIN_EXTENT)
    return math.ldexp(1.0, math.frexp(float(extent))[1] - level)


def forced_image(side_of):
    """A _visit_hits stand-in that walks the image pass at the cell side
    side_of(coords) whatever the image's size, with no tree and no bulk add."""

    def visit_hits(coords, lo2, hi2, visit, per):
        grid = counting._bucket_cells(coords[:, 0], coords[:, 1], side_of(coords))
        counting._image_hits(coords, grid, counting._offsets(grid, lo2, hi2), lo2, hi2, visit)

    return visit_hits
