"""Smoke runs of the experiment scripts and the README example, so they keep
working with the library."""

import os
import re
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


@pytest.mark.parametrize("args, option", [
    (["--max-n", "0"], "--max-n"),
    (["--max-r", "1.5"], "--max-r"),
    (["--max-r", "-0.5"], "--max-r"),
    (["--seed", "-1"], "--seed"),
])
def test_bernstein_sharpness_rejects_out_of_range_options(args, option):
    # an argparse error naming the option, not numpy's "low >= high" traceback
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bernstein_sharpness.py"), "--samples", "2", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 2
    assert f"error: argument {option}:" in out.stderr
    assert "Traceback" not in out.stderr


def test_scaling_study_rejects_a_negative_seed():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_study.py"),
         "--n-grid", "2", "--estimate-cap", "2", "--seed", "-1"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 2
    assert "error: argument --seed:" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("args, option", [
    (["--n-grid", "0"], "--n-grid"),
    (["--n-grid", "2,x"], "--n-grid"),
    (["--budget", "0"], "--budget"),
    (["--estimate-cap", "-1"], "--estimate-cap"),
    (["--r-grid", "1"], "--r-grid"),
    (["--r-grid", "0.5,-0.1"], "--r-grid"),
])
def test_scaling_study_rejects_out_of_range_options(args, option):
    # an argparse error naming the option: not bounds._multiplicity's ValueError
    # traceback for --n-grid 0, nor --budget 0 run silently as one start
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_study.py"), "--n-grid", "2", *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 2
    assert f"error: argument {option}:" in out.stderr
    assert "Traceback" not in out.stderr


def test_scaling_study_fits_an_r_grid_jointly():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_study.py"),
         "--n-grid", "2,4", "--r-grid", "0.5,0.99"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines() if line[:4].strip().isdigit()]
    # n-major, then r, in both scales: x = n/(1-r) names the radius
    assert [float(row[1]) for row in rows] == [4.0, 200.0, 8.0, 400.0] * 2
    assert all(float(row[2]) > 0.0 for row in rows)
    assert out.stdout.count("fitted witness slope:") == 2


def test_scaling_study_prints_a_cell_without_cholesky_factor_as_a_dash():
    # l^2_a(6) at (0.999,)*32: the Stein Gram has no Cholesky factor in
    # double precision, so its witness and estimate cells read "-"
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_study.py"), "--alpha", "6",
         "--n-grid", "32", "--r-grid", "0.999", "--estimate-cap", "32", "--budget", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines() if line[:4].strip().isdigit()]
    assert len(rows) == 2
    assert all(float(value) > 0.0 for value in rows[0][2:4])  # H^2
    assert rows[1][2:4] == ["-", "-"]


def test_readme_library_example_runs():
    readme = ROOT / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(readme), "exec"), {})
