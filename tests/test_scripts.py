"""Smoke tests: every script in scripts/ runs once at a small size and exits 0,
and every name the benchmark imports from the package still exists."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ("collapse_sweep.py", "--alphabets", "3", "--lengths", "100", "--trials", "5"),
    ("verify_primes.py", "--limits", "10000"),
    ("debruijn_coloring_probe.py", "--C", "3", "--k", "3", "--max-length", "8",
     "--random-colorings", "3"),
]


@pytest.mark.parametrize("argv", RUNS, ids=[r[0] for r in RUNS])
def test_script_runs(argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_imports_resolve():
    tree = ast.parse((ROOT / "benchmarks" / "micro.py").read_text())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gilbreath.")
             for alias in node.names]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
