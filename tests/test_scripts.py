"""Every name the benchmark imports from the package still exists."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_imports_resolve():
    tree = ast.parse((ROOT / "benchmarks" / "micro.py").read_text())
    names = [(node.module, alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gilbreath.")
             for alias in node.names]
    assert names
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing
