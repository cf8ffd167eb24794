"""Acceptance gate: every criterion prints one PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Each test pins the tolerance stated with the criterion; random
draws use fixed seeds so reruns are bit-reproducible.
"""

import math
import time

import numpy as np
import pytest

from discinterp import (
    CoeffSeries,
    PickProblem,
    SigmaSet,
    bernstein_ratio,
    bound_sweep,
    cs_min_norm,
    dirichlet_kernel,
    eval_series,
    fejer_kernel,
    hadamard_product,
    hardy,
    interp_constant,
    jet_values,
    malmquist_basis,
    min_norm_trace,
    pick_min_norm,
    project,
    projection_operator_norm,
    quotient_norm,
    seq_weighted,
    witness_lower_bound,
)
from discinterp.cli import main as cli_main

from conftest import random_poly, random_sigma


def report(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_malmquist_orthonormality():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        sigma = random_sigma(rng, n_max=8, r_max=0.95)
        E = malmquist_basis(sigma).coeff_matrix()
        gram = E.conj() @ E.T
        worst = max(worst, float(np.max(np.abs(gram - np.eye(sigma.n)))))
    elapsed = time.monotonic() - t0
    report(
        1,
        "Malmquist orthonormality over 100 random sigma",
        worst <= 1e-8 and elapsed < 10.0,
        f"max deviation {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_interpolation_property():
    rng = np.random.default_rng(102)
    worst = 0.0
    sigmas = [SigmaSet((0.35 - 0.2j,) * 3)]
    for _ in range(12):
        sigmas.append(random_sigma(rng, n_max=6, r_max=0.85))
    for sigma in sigmas:
        basis = malmquist_basis(sigma)
        for _ in range(4):
            f = random_poly(rng, int(rng.integers(4, 33)))
            want = jet_values(f, sigma)
            got = jet_values(project(basis, f), sigma)
            err = float(np.linalg.norm(got - want) / np.linalg.norm(want))
            worst = max(worst, err)
    report(
        2,
        "projection matches jets (deg <= 32, incl. triple point)",
        worst <= 1e-7,
        f"max rel err {worst:.2e}",
    )


def test_criterion_03_bernstein_bound_and_sharpness():
    rng = np.random.default_rng(103)
    t0 = time.monotonic()
    violations = 0
    worst_quot = 0.0
    for _ in range(200):
        sigma = random_sigma(rng, n_max=10, r_max=0.9)
        ratio = bernstein_ratio(sigma)
        bound = 2.5 * sigma.n / (1.0 - sigma.r)
        worst_quot = max(worst_quot, ratio / bound)
        if ratio > bound:
            violations += 1
    floor_ok = all(
        bernstein_ratio(SigmaSet((0.0,) * n)) >= n - 1 - 1e-9 for n in range(2, 11)
    )
    elapsed = time.monotonic() - t0
    report(
        3,
        "derivative bound 2.5 n/(1-r) with monomial sharpness floor",
        violations == 0 and floor_ok and elapsed < 30.0,
        f"worst ratio/bound {worst_quot:.3f}, {elapsed:.1f}s",
    )


def test_criterion_04_iterated_derivative_bound():
    rng = np.random.default_rng(104)
    ok = True
    worst = 0.0
    for _ in range(50):
        sigma = random_sigma(rng, n_max=6, r_max=0.85)
        for k in (2, 3):
            bound = math.factorial(k) * (2.5 * sigma.n / (1.0 - sigma.r)) ** k
            ratio = bernstein_ratio(sigma, order=k)
            worst = max(worst, ratio / bound)
            ok = ok and ratio <= bound
    report(
        4,
        "iterated bound k! (5/2)^k (n/(1-r))^k for k in {2,3}",
        ok,
        f"worst ratio/bound {worst:.3f}",
    )


def test_criterion_05_jet_solver_oracle_and_coalescence():
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    cs_ok = abs(cs_min_norm([1.0, 1.0]).value - golden) <= 1e-9

    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        lam = complex(*(0.55 * rng.uniform(-1, 1, size=2)))
        f = random_poly(rng, 8)
        merged = quotient_norm(f, SigmaSet((lam, lam))).value
        split = pick_min_norm(
            PickProblem(
                (lam, lam + 1e-3),
                (eval_series(f, lam), eval_series(f, lam + 1e-3)),
            )
        ).value
        worst = max(worst, abs(split - merged) / merged)
    report(
        5,
        "golden-ratio jet norm and 1e-3 coalescence agreement",
        cs_ok and worst <= 1e-2,
        f"worst rel gap {worst:.2e}",
    )


def test_criterion_06_kernel_chain_at_origin():
    ok = True
    details = []
    for n in (4, 9, 16, 25):
        ratio = witness_lower_bound(hardy(2), 0.0, n)
        ok = ok and ratio >= 0.5 * math.sqrt(n)
        details.append(f"n={n}:{ratio:.3f}")
        smoothed = hadamard_product(dirichlet_kernel(n), fejer_kernel(n))
        value = eval_series(smoothed, 1.0)
        ok = ok and abs(value - (n + 1) / 2.0) <= 1e-12
    report(6, "witness ratio >= sqrt(n)/2 and kernel value (n+1)/2", ok, " ".join(details))


def test_criterion_07_lower_bound_formula_grid():
    t0 = time.monotonic()
    violations = []
    for n in (4, 8, 16, 32):
        for r in (0.0, 0.5, 0.9):
            w = witness_lower_bound(hardy(2), r, n)
            need = (1.0 / math.sqrt(32.0)) * math.sqrt(n / (1.0 - r))
            if w < need:
                violations.append((n, r, w, need))
    elapsed = time.monotonic() - t0
    report(
        7,
        "witness >= (1/32)^(1/2) (n/(1-r))^(1/2) on the 4x3 grid",
        not violations and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_08_hardy_growth_slope():
    res = bound_sweep(hardy(2), [4, 8, 16, 32, 64], [0.5])
    slope = res.slope_witness
    report(
        8,
        "Hardy(2) witness log-log slope 0.5 +- 0.15",
        slope is not None and abs(slope - 0.5) <= 0.15,
        f"slope {slope:.3f}",
    )


def test_criterion_09_weighted_growth_slope():
    res = bound_sweep(seq_weighted(2, 1.5), [4, 8, 16, 32, 64], [0.5])
    slope = res.slope_witness
    report(
        9,
        "weighted l^2(alpha=1.5) witness slope 1.0 +- 0.2",
        slope is not None and abs(slope - 1.0) <= 0.2,
        f"slope {slope:.3f}",
    )


def test_criterion_10_sandwich_property():
    rng = np.random.default_rng(110)
    space = hardy(2)
    ok = True
    worst_gap = 0.0
    for _ in range(30):
        sigma = random_sigma(rng, n_max=5, r_max=0.8, distinct=True, min_sep=0.08)
        n = sigma.n
        probes = [np.eye(n, dtype=complex)[0],
                  np.ones(n, dtype=complex) / math.sqrt(n),
                  np.array([(-1.0) ** k for k in range(n)], dtype=complex) / math.sqrt(n)]
        probe_vals = []
        for a in probes:
            res = min_norm_trace(space, sigma, a)
            probe_vals.append(quotient_norm(res.interpolant, sigma).value / res.norm)
        est = interp_constant(space, sigma, budget=max(8, n + 3))
        top = projection_operator_norm(space, sigma)
        ok = ok and max(probe_vals) <= est + 1e-6 and est <= top + 1e-6
        worst_gap = max(worst_gap, est - top)
    exact = interp_constant(space, SigmaSet((0.8,)), budget=2)
    ok = ok and abs(exact - 5.0 / 3.0) <= 1e-4
    report(
        10,
        "probes <= estimate <= operator norm; exact 5/3 at {0.8}",
        ok,
        f"c({{0.8}})={exact:.6f}",
    )


def test_criterion_11_power_inequality():
    from discinterp import power_inequality_check

    rng = np.random.default_rng(111)
    ok = True
    for alpha in (1.0, 1.5, 2.0):
        for _ in range(34):
            f = random_poly(rng, int(rng.integers(0, 17)))
            lhs, rhs = power_inequality_check(alpha, f)
            ok = ok and lhs <= rhs + 1e-9
    report(11, "kernel power inequality on 102 random polynomials", ok)


def test_criterion_12_sweep_determinism(tmp_path):
    argv = [
        "sweep", "--space", "hardy", "--p", "2",
        "--n-grid", "2,4,8", "--r-grid", "0,0.5",
        "--estimate-cap", "2", "--budget", "4", "--seed", "33", "--reproducible",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(argv + ["--output", str(out1)])
    code2 = cli_main(argv + ["--output", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    report(
        12,
        "fixed-seed sweep emits byte-identical csv",
        code1 == 0 and code2 == 0 and same,
    )
