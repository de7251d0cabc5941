"""The scripts under scripts/ run to the end against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, last_line", [
    ("orbital_scan_s6.py", "28 connected selections, all Hamiltonian"),
    ("derive_psl2_16.py", "all checks passed"),
])
def test_script_runs(script, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1].startswith(last_line)
