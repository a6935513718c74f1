"""Every module imports first in a fresh interpreter, and the demos run.

The modules form layers (fields, linalg, algebra, series, enumeration,
analyzer, structure, verify, corpus, fileformat, cli), and `series` reaches
`enumeration` through a local import.  The package's `__init__` imports them
in one fixed order, which can hide an import cycle, so each module is
imported here with an empty package standing in for `nonassoc`.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "nonassoc").glob("*.py") if p.stem != "__init__")
DEMOS = ("tour.py", "split_walkthrough.py", "search_and_verify.py")


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    package = str(SRC / "nonassoc")
    done = _run([
        "-c",
        "import sys, types; package = types.ModuleType('nonassoc'); "
        f"package.__path__ = [{package!r}]; sys.modules['nonassoc'] = package; "
        f"import nonassoc.{module}",
    ])
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    done = _run([str(ROOT / "demos" / demo)])
    assert done.returncode == 0, done.stderr
    assert done.stdout
