"""Smoke runs of the experiment scripts, so they keep working with the library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, summary",
    [
        ("bernstein_sharpness.py", ["--samples", "3", "--max-n", "3"], "overall worst ratio/bound:"),
        ("scaling_study.py", ["--n-grid", "2,4"], "fitted witness slope:"),
    ],
)
def test_script_runs(script, args, summary):
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stderr
    assert summary in out.stdout
