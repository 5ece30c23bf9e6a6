"""What each command imports, and that commands call the names patched on `neardist.cli`.

`import neardist` loads no library module, and each command loads only the
modules it runs. perfbench's traced runs replace names of `neardist.cli` with
timing wrappers, so every command must call what is set there.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neardist
from neardist import cli

from conftest import SRC_DIR

TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"

# Runs in a fresh interpreter: the neardist modules loaded after `import
# neardist`, then after `cli.main(argv)`, and the exit code, as one JSON line.
MODULE_SET_CHILD = """
import contextlib, io, json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "neardist")
import neardist
bare = loaded()
from neardist import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([bare, loaded(), code]))
"""

BASE = {"neardist", "neardist.cli", "neardist.fileio", "neardist.geometry"}
# command -> (arguments, the modules it loads beyond BASE, exit code). The
# emp1 inputs come from the `generate` fixture below; their t = 60, 120, 180
# fail the near-sum check by design, so verify and check-hypothesis exit 1.
COMMANDS = {
    "generate": (["generate", "emp1", "--n", "40", "--k", "3", "--t", "60"],
                 {"constructions", "counting"}, 0),
    "count": (["count", "points.json", "intervals.json"], {"counting"}, 0),
    "verify": (["verify", "points.json", "intervals.json", "--delta", "0.2", "--C", "100"],
               {"counting"}, 1),
    "check-hypothesis": (["check-hypothesis", "intervals.json", "--delta", "0.2"], set(), 1),
    "diameter": (["diameter", "points.json"], {"counting"}, 0),
    # s = m = 1 on emp1 finds a unique-max witness, so angle_diagnostic runs.
    "analyze": (["analyze", "points.json", "intervals.json", "--s", "1", "--m", "1"],
                {"counting", "graphs"}, 0),
    "search": (["search", "--intervals", "intervals.json", "--n", "4", "--iterations", "30"],
               {"constructions", "counting", "search"}, 0),
}


def _child(code: str, *args: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def _main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


@pytest.fixture(scope="module")
def emp1(tmp_path_factory) -> Path:
    """emp1 points and intervals (n = 40, k = 3, t = 60) in a directory of their own."""
    work = tmp_path_factory.mktemp("emp1")
    assert _main(["generate", *COMMANDS["generate"][0][1:], "--output-dir", str(work)]) == 0
    return work


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_its_modules(emp1, tmp_path, command):
    argv, extra, exit_code = COMMANDS[command]
    for name in ("points.json", "intervals.json"):
        (tmp_path / name).write_bytes((emp1 / name).read_bytes())
    line = _child(MODULE_SET_CHILD, "--output-dir", "out", *argv, cwd=tmp_path)
    bare, loaded, code = json.loads(line)
    assert bare == ["neardist"]
    assert code == exit_code
    assert set(loaded) == BASE | {f"neardist.{m}" for m in extra}


def test_public_names_resolve_on_first_use(tmp_path):
    child = """
import json, sys
import neardist
probes = [hasattr(neardist, name) for name in ("__wrapped__", "__test__", "__file__")]
after_probes = sorted(m for m in sys.modules if m.startswith("neardist"))
star = {}
exec("from neardist import *", star)
print(json.dumps([probes, after_probes, sorted(set(star) - {"__builtins__"}),
                  dir(neardist), neardist.__all__]))
"""
    probes, after_probes, star, listed, public = json.loads(_child(child, cwd=tmp_path))
    # A dunder lookup imports nothing: runpy, pickle and hasattr make them.
    assert probes == [False, False, True] and after_probes == ["neardist"]
    assert len(public) == len(set(public)) == 39
    assert star == sorted(public)
    assert set(public) <= set(listed) and listed == sorted(listed)
    assert public == neardist.__all__


def test_submodule_names_import_that_module_alone(tmp_path):
    child = """
import json, sys
import neardist
graphs = neardist.graphs
print(json.dumps(sorted(m for m in sys.modules if m.startswith("neardist"))))
"""
    assert json.loads(_child(child, cwd=tmp_path)) == [
        "neardist", "neardist.counting", "neardist.geometry", "neardist.graphs"]
    with pytest.raises(AttributeError):
        neardist.no_such_name


def _traced_wrapped() -> list[tuple]:
    spec = importlib.util.spec_from_file_location("_perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced.WRAPPED


def test_traced_cli_names_resolve():
    names = [attr for module, attr, *_ in _traced_wrapped() if module is cli]
    assert {"build_graph", "find_tripartite", "anneal", "verify_bound"} <= set(names)
    for name in names:
        assert callable(getattr(cli, name)), name


def test_commands_call_the_names_patched_on_cli(emp1, tmp_path, monkeypatch):
    calls: dict[str, int] = {}

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        return wrapper

    names = ["anneal", "find_tripartite", "homogenize", "angle_diagnostic", "verify_bound",
             "load_point_set"]
    for name in names:
        monkeypatch.setattr(cli, name, counted(name))
    points, intervals = str(emp1 / "points.json"), str(emp1 / "intervals.json")
    for command in ("verify", "analyze", "search"):
        argv, _, exit_code = COMMANDS[command]
        argv = [{"points.json": points, "intervals.json": intervals}.get(a, a) for a in argv]
        assert _main(["--output-dir", str(tmp_path / command), *argv]) == exit_code
    assert calls == {"anneal": 1, "find_tripartite": 1, "homogenize": 1, "angle_diagnostic": 1,
                     "verify_bound": 1, "load_point_set": 2}
