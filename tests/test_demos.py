"""The demos run to completion and print what they claim."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wavetrack import maximum_principle_check

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = _run(demo)
    assert done.returncode == 0, done.stderr


def test_characteristics_demo_prints_the_backward_foot():
    demo = ROOT / "demos" / "04_characteristics.py"
    spec = importlib.util.spec_from_file_location("demo_04", demo)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    back = maximum_principle_check(module.make_field(), (-1.0, 1.0),
                                   2.0).back_left
    printed = re.search(r"foot at x = (\S+)", _run(demo).stdout)
    assert printed is not None
    assert float(printed.group(1)) == round(back.start_position, 4)


def test_runtime_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "wavetrack").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["wavetrack" if node.level else node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "wavetrack" or top in sys.stdlib_module_names, (
                    f"{path.name} imports {name}")
