"""Smoke test: every script in scripts/ runs once at a small size and exits 0."""

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
