"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import neardist

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
