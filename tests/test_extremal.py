import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import toeplitz

from discinterp import (
    CoeffSeries,
    DegenerateNodes,
    PickProblem,
    SigmaSet,
    carleson_constant,
    cli,
    compose_with_blaschke,
    cs_min_norm,
    eval_series,
    extremal,
    gram_matrix,
    hardy,
    jet_values,
    malmquist_basis,
    pick_min_norm,
    projection_operator_norm,
    quotient_norm,
)
from discinterp.series import _basis_taylor, _compressed_shift

from conftest import oracles, random_poly, random_sigma, recording_ascent, sequential_ascent

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def carleson_starts(n, budget, seed):
    """Alternating data, then seeded uniform phases with the first fixed at 0."""
    rng = np.random.default_rng(seed)
    starts = [np.array([(-1.0) ** k for k in range(n)], dtype=complex)]
    while len(starts) < budget:
        phases = np.concatenate(([0.0], rng.uniform(-np.pi, np.pi, size=n - 1)))
        starts.append(np.exp(1j * phases))
    return starts


class TestPick:
    def test_single_node_is_modulus(self):
        res = pick_min_norm(PickProblem((0.4 + 0.1j,), (0.7 - 0.2j,)))
        assert res.value == pytest.approx(abs(0.7 - 0.2j), abs=1e-12)

    def test_schwarz_frozen(self):
        res = pick_min_norm(PickProblem((0.0, 0.5), (0.0, 0.5)))
        assert res.value == pytest.approx(1.0, abs=1e-8)
        assert abs(res.certificate) <= 1e-7

    def test_constant_data(self):
        res = pick_min_norm(PickProblem((0.1, -0.4, 0.3j), (0.5, 0.5, 0.5)))
        assert res.value == pytest.approx(0.5, abs=1e-10)

    def test_zero_data(self):
        res = pick_min_norm(PickProblem((0.1, -0.4), (0.0, 0.0)))
        assert res.value == 0.0

    def test_certificate_near_zero(self, rng):
        for _ in range(10):
            sigma = random_sigma(rng, n_max=5, r_max=0.8, distinct=True)
            w = rng.standard_normal(sigma.n) + 1j * rng.standard_normal(sigma.n)
            res = pick_min_norm(PickProblem(sigma.points, tuple(w)))
            assert -1e-7 <= res.certificate <= 1e-7

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_blaschke_multiple_is_exact(self, rng, n):
        # s * B with deg B < n is the unique minimal interpolant of its values
        s = complex(*rng.standard_normal(2))
        zeros = np.array(random_sigma(rng, n=n - 1, r_max=0.8).points)
        nodes = np.array(random_sigma(rng, n=n, r_max=0.8, distinct=True).points)
        blaschke = np.prod(
            (nodes[:, None] - zeros) / (1.0 - zeros.conj() * nodes[:, None]), axis=1
        )
        res = pick_min_norm(PickProblem(tuple(nodes), tuple(s * blaschke)))
        assert res.value == pytest.approx(abs(s), abs=1e-10)

    def test_two_point_zero_data_exact(self, rng):
        for _ in range(10):
            lam1, lam2 = random_sigma(rng, n=2, r_max=0.8, distinct=True).points
            w = complex(*rng.standard_normal(2))
            pseudo = abs((lam2 - lam1) / (1.0 - np.conj(lam1) * lam2))
            res = pick_min_norm(PickProblem((lam1, lam2), (0.0, w)))
            assert res.value == pytest.approx(abs(w) / pseudo, rel=1e-10)

    @pytest.mark.parametrize("sep", [1e-8, 1e-9])
    def test_coalescing_pair_matches_merged_jet(self, rng, sep):
        for _ in range(5):
            lam = complex(*(0.6 * rng.uniform(-1, 1, size=2)))
            mu = lam + sep * np.exp(2j * np.pi * rng.uniform())
            f = random_poly(rng, 8)
            split = pick_min_norm(
                PickProblem((lam, mu), (eval_series(f, lam), eval_series(f, mu)))
            ).value
            merged = quotient_norm(f, SigmaSet((lam, lam))).value
            assert split == pytest.approx(merged, rel=1e-5)

    def test_crowded_nodes_blaschke_multiple(self, rng):
        # 16 nodes in the 0.5-disc with s * B data, deg B = 15
        for _ in range(5):
            s = complex(*rng.standard_normal(2))
            zeros = np.array(random_sigma(rng, n=15, r_max=0.5).points)
            nodes = np.array(
                random_sigma(rng, n=16, r_max=0.5, distinct=True, min_sep=1e-2).points
            )
            blaschke = np.prod(
                (nodes[:, None] - zeros) / (1.0 - zeros.conj() * nodes[:, None]), axis=1
            )
            res = pick_min_norm(PickProblem(tuple(nodes), tuple(s * blaschke)))
            assert res.value == pytest.approx(abs(s), abs=1e-4)

    def test_rounding_guard_rejects_clustered_smooth_data(self, rng):
        # three nodes within 1e-8 carry smooth data; the value would be wrong
        f = random_poly(rng, 8)
        nodes = (0.3, 0.3 + 1e-8, 0.3 + 1e-8j)
        with pytest.raises(DegenerateNodes):
            pick_min_norm(PickProblem(nodes, tuple(eval_series(f, z) for z in nodes)))

    def test_rejects_merged_nodes(self):
        with pytest.raises(DegenerateNodes):
            pick_min_norm(PickProblem((0.3, 0.3 + 1e-12), (0.0, 1.0)))

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(0.1, 5.0))
    def test_scaling_equivariance(self, t):
        base = pick_min_norm(PickProblem((0.0, 0.5, -0.3j), (1.0, -0.5, 0.25j)))
        scaled = pick_min_norm(
            PickProblem((0.0, 0.5, -0.3j), (t, -0.5 * t, 0.25j * t))
        )
        assert scaled.value == pytest.approx(t * base.value, rel=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(theta=st.floats(0.0, 2.0 * np.pi))
    def test_rotation_invariance(self, theta):
        nodes = np.array([0.1, 0.5, -0.3 + 0.2j])
        values = (1.0, -0.5, 0.25j)
        base = pick_min_norm(PickProblem(tuple(nodes), values))
        rotated = pick_min_norm(PickProblem(tuple(np.exp(1j * theta) * nodes), values))
        assert rotated.value == pytest.approx(base.value, rel=1e-6)

    def test_monotone_under_added_node(self, rng):
        f = random_poly(rng, 6)
        nodes2 = (0.2, -0.4 + 0.1j)
        nodes3 = nodes2 + (0.5j,)
        v2 = pick_min_norm(
            PickProblem(nodes2, tuple(eval_series(f, z) for z in nodes2))
        ).value
        v3 = pick_min_norm(
            PickProblem(nodes3, tuple(eval_series(f, z) for z in nodes3))
        ).value
        assert v3 >= v2 - 1e-8

    def test_rejects_repeated_and_non_finite_nodes(self):
        with pytest.raises(DegenerateNodes):
            pick_min_norm(PickProblem((0.3, -0.2, 0.3), (0.0, 1.0, 0.5)))
        with pytest.raises(DegenerateNodes):
            PickProblem((0.3, complex("nan")), (0.0, 1.0))


class TestPickFactor:
    """The data map C^-1 diag(w) C from the Malmquist values C[j, k] = e_k(lam_j)."""

    def test_value_is_classical_pick_value(self, rng):
        # least sup-norm^2 = lambda_max(P^-1 W P W^H), P the Cauchy matrix, W = diag(w)
        for _ in range(40):
            sigma = random_sigma(rng, n_max=6, r_max=0.9, distinct=True)
            lam, n = np.array(sigma.points), sigma.n
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            cauchy = 1.0 / (1.0 - np.outer(lam, lam.conj()))
            top = np.linalg.eigvals(np.linalg.solve(cauchy, w[:, None] * cauchy * w.conj()))
            want = np.sqrt(np.max(top.real))
            got = pick_min_norm(PickProblem(sigma.points, tuple(w))).value
            assert got == pytest.approx(want, rel=1e-12)

    def test_malmquist_values_factor_the_cauchy_matrix(self, rng):
        for _ in range(40):
            sigma = random_sigma(rng, n_max=6, r_max=0.9, distinct=True)
            lam = np.array(sigma.points)
            C = _basis_taylor(sigma.points, lam)[0].T
            cauchy = 1.0 / (1.0 - np.outer(lam, lam.conj()))
            assert np.array_equal(C, np.tril(C))
            assert np.max(np.abs(C @ C.conj().T - cauchy)) <= 1e-13 * np.max(np.abs(cauchy))

    def test_unit_data_with_a_close_pair(self, rng):
        # data e_i: the least interpolant is B_i / B_i(lam_i), B_i the Blaschke
        # product of the other nodes, so the value is 1 / |B_i(lam_i)|
        for _ in range(20):
            n = int(rng.integers(3, 9))
            nodes = np.array(random_sigma(rng, n=n, r_max=0.9, distinct=True).points)
            nodes[1] = nodes[0] + 10 ** rng.uniform(-6, -3) * np.exp(2j * np.pi * rng.uniform())
            for i in range(n):
                others = np.delete(nodes, i)
                pseudo = np.abs((others - nodes[i]) / (1.0 - others.conj() * nodes[i]))
                value = pick_min_norm(PickProblem(tuple(nodes), tuple(np.eye(n)[i]))).value
                assert value == pytest.approx(1.0 / np.prod(pseudo), rel=1e-13)

    def test_closed_form_norms_match_svd(self, rng):
        # the M_i are rank one, so the Frobenius norms of the stack's rows,
        # which _check_accuracy reads, are their spectral norms
        for _ in range(40):
            sigma = random_sigma(rng, n_max=8, r_max=0.9, distinct=True)
            n = sigma.n
            stack = extremal._pick_factor(sigma.points)
            norms = np.linalg.norm(stack, axis=1)
            svd = np.linalg.norm(stack.reshape(n, n, n), 2, axis=(1, 2))
            assert np.max(np.abs(norms - svd) / svd) <= 1e-13

    def test_clustered_nodes_name_the_underflow(self):
        # 150 nodes on |z - 0.5| = 0.001 are 4e-5 apart, above _MIN_SEPARATION,
        # but the diagonal of C underflows: both entry points name it, and
        # the CLI exits 2 as for every LinAlgError
        points = tuple(0.5 + 0.001 * np.exp(2j * np.pi * np.arange(150) / 150))
        message = r"basis jets underflow at diagonal \d+"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            pick_min_norm(PickProblem(points, (1.0,) * 150))
        with pytest.raises(np.linalg.LinAlgError, match=message):
            carleson_constant(SigmaSet(points), budget=2)
        nodes = ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in points)
        argv = ["pick", "--nodes", nodes, "--values", ",".join(["1"] * 150)]
        assert cli.main(argv) == 2


class TestCaratheodorySchur:
    def test_single_coefficient(self):
        assert cs_min_norm([0.3 - 0.4j]).value == pytest.approx(0.5, abs=1e-14)

    def test_golden_ratio_frozen(self):
        res = cs_min_norm([1.0, 1.0])
        assert res.value == pytest.approx(GOLDEN, abs=1e-9)
        assert res.certificate <= 1e-12

    def test_top_shift_coefficient(self):
        assert cs_min_norm([0, 0, 0, 0, 1.0]).value == pytest.approx(1.0, abs=1e-12)

    def test_dominated_by_sup_norm(self, rng):
        f = random_poly(rng, 5)
        # any analytic extension of the jet has sup norm >= the jet norm
        grid = np.exp(2j * np.pi * np.arange(512) / 512)
        sup = np.max(np.abs(eval_series(f, grid)))
        assert cs_min_norm(f.coeffs).value <= sup * (1 + 1e-10)

    def test_matrix_equals_scipy_toeplitz_bitwise(self, rng, monkeypatch):
        seen = []
        monkeypatch.setattr(extremal, "_norm_result", lambda matrix, mode: seen.append(matrix))
        for n in range(1, 65):
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            cs_min_norm(c)
            first_row = np.zeros_like(c)
            first_row[0] = c[0]
            want = toeplitz(c, first_row)
            got = seen.pop()
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()


class TestQuotient:
    def test_blaschke_product_is_in_ideal(self, rng):
        sigma = random_sigma(rng, n_max=4, r_max=0.7, distinct=True)
        B = CoeffSeries(oracles.blaschke_taylor(sigma.points, 501))
        assert quotient_norm(B, sigma).value <= 1e-9

    def test_constant(self):
        sigma = SigmaSet((0.5, -0.3))
        assert quotient_norm(CoeffSeries([2.5]), sigma).value == pytest.approx(2.5)

    def test_linear_at_double_origin(self):
        res = quotient_norm(CoeffSeries([0.0, 1.0]), SigmaSet((0.0, 0.0)))
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_mixed_multiplicity_blaschke_multiple(self, rng):
        # s * B with deg B < 6 is the unique minimal function with its jet
        p, q, r = 0.3 + 0.2j, -0.4, 0.1j
        sigma = SigmaSet((p, q, p, r, p, q))
        for _ in range(5):
            s = complex(*rng.standard_normal(2))
            zeros = random_sigma(rng, n_max=5, r_max=0.6).points
            f = CoeffSeries(s * oracles.blaschke_taylor(zeros, 401))
            res = quotient_norm(f, sigma)
            assert res.mode == "hermite"
            assert res.value == pytest.approx(abs(s), abs=1e-10)

    def test_compressed_shift_matches_basis(self):
        # T_B[k, l] = <z e_l, e_k> in the Malmquist basis, mixed multiset included
        sigma = SigmaSet((0.3 + 0.2j, -0.4, 0.3 + 0.2j, 0.1j, 0.3 + 0.2j))
        E = malmquist_basis(sigma).coeff_matrix()
        shifted = np.zeros_like(E)
        shifted[:, 1:] = E[:, :-1]
        T = _compressed_shift(sigma.points)
        assert np.max(np.abs(E.conj() @ shifted.T - T)) <= 1e-12

    def test_transplanted_jet_matches_direct_cs(self, rng):
        lam = 0.45 - 0.2j
        f = random_poly(rng, 10)
        n = 4
        res = quotient_norm(f, SigmaSet((lam,) * n))
        composed = compose_with_blaschke(f, lam, n_out=n - 1)
        assert res.value == pytest.approx(cs_min_norm(composed.coeffs).value, rel=1e-12)

    def test_coalescence_toward_jet_problem(self, rng):
        for _ in range(5):
            lam = complex(*(0.6 * rng.uniform(-1, 1, size=2)))
            f = random_poly(rng, 8)
            eps = 1e-3
            merged = quotient_norm(f, SigmaSet((lam, lam))).value
            split = pick_min_norm(
                PickProblem(
                    (lam, lam + eps),
                    (eval_series(f, lam), eval_series(f, lam + eps)),
                )
            ).value
            assert split == pytest.approx(merged, rel=1e-2)

    def test_coalescence_accurate_or_rejected(self, rng):
        # split nodes approach the merged jet value, or the solver refuses
        for _ in range(10):
            lam = complex(*(0.6 * rng.uniform(-1, 1, size=2)))
            f = random_poly(rng, 8)
            merged = quotient_norm(f, SigmaSet((lam, lam))).value
            direction = np.exp(2j * np.pi * rng.uniform())
            for eps in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
                sigma = SigmaSet((lam, lam + eps * direction))
                try:
                    split = quotient_norm(f, sigma).value
                except DegenerateNodes:
                    assert eps < 1e-6
                    continue
                assert split == pytest.approx(merged, rel=1e-3)

    # Bound fixed from a sweep of 4000 random and 20000 adversarial draws
    # (monomials, |lam| = 0.9): gap / (delta sum_k k |c_k|) peaked at 0.30
    # and was flat in delta from 1e-2 to 1e-8.  The last term is rounding.
    @settings(max_examples=200, deadline=None)
    @given(
        lam_r=st.floats(0.0, 0.9),
        angles=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3),
        coeffs=st.lists(
            st.complex_numbers(max_magnitude=1.0, allow_nan=False), min_size=12, max_size=12
        ),
    )
    def test_split_node_converges_to_merged_jet(self, lam_r, angles, coeffs):
        lam, mu, d = np.array([lam_r, 0.7, 1.0]) * np.exp(1j * np.array(angles))
        assume(abs(mu - lam) >= 0.2)
        f = CoeffSeries(coeffs)
        merged = quotient_norm(f, SigmaSet((lam, lam, mu))).value
        mags = np.abs(coeffs)
        for delta in 10.0 ** -np.arange(2, 9):
            split = quotient_norm(f, SigmaSet((lam, lam + delta * d, mu))).value
            assert abs(split - merged) <= 0.5 * delta * (np.arange(12) @ mags) + 1e-15 * mags.sum()


class TestCarleson:
    def test_single_node_is_one(self):
        assert carleson_constant(SigmaSet((0.3,)), budget=2) == pytest.approx(1.0, abs=1e-8)

    def test_dominates_fixed_probe(self, rng):
        sigma = random_sigma(rng, n_max=3, r_max=0.6, distinct=True, min_sep=0.2)
        probe = np.array([(-1.0) ** k for k in range(sigma.n)], dtype=complex)
        probe_val = pick_min_norm(PickProblem(sigma.points, tuple(probe))).value
        assert carleson_constant(sigma, budget=6, seed=3) >= probe_val - 1e-6

    def test_two_point_frozen_and_deterministic(self):
        sigma = SigmaSet((0.5, -0.5))
        v1 = carleson_constant(sigma, budget=8, seed=11)
        v2 = carleson_constant(sigma, budget=8, seed=11)
        assert v1 == v2
        # data (1, -1) forces norm level 2 exactly on these nodes
        assert v1 >= 2.0 - 1e-8
        assert np.isfinite(v1)

    def test_rejects_repeated_nodes(self):
        with pytest.raises(DegenerateNodes):
            carleson_constant(SigmaSet((0.2, 0.2)))

    def test_factors_nodes_once(self, monkeypatch):
        calls = []
        factor = extremal._pick_factor

        def counted(nodes):
            calls.append(nodes)
            return factor(nodes)

        monkeypatch.setattr(extremal, "_pick_factor", counted)
        carleson_constant(SigmaSet((0.5, -0.5, 0.3j)), budget=4, seed=1)
        assert len(calls) == 1

    def test_dominates_every_start(self):
        sigma = SigmaSet((0.5, -0.3 + 0.4j, 0.1j, -0.6 - 0.2j))
        n, budget, seed = sigma.n, 12, 5
        factor = extremal._pick_factor(sigma.points)
        starts = carleson_starts(n, budget, seed)
        value = carleson_constant(sigma, budget=budget, seed=seed)
        for w in starts:
            assert value >= extremal._pick_value(factor, w) * (1 - 1e-12)
        assert value > extremal._pick_value(factor, starts[0]) * (1 + 1e-6)

    @pytest.mark.parametrize("nodes", [(0.5, -0.5), (0.3, 0.6j), (0.1 - 0.2j, 0.7)])
    def test_two_point_closed_form_from_one_start(self, nodes):
        # sup over unimodular data of the two-point Pick value is
        # (1 + sqrt(1 - rho^2)) / rho, rho the pseudo-hyperbolic distance
        a, b = nodes
        rho = abs(a - b) / abs(1 - np.conj(a) * b)
        exact = (1 + np.sqrt(1 - rho**2)) / rho
        assert carleson_constant(SigmaSet(nodes), budget=1) == pytest.approx(exact, rel=1e-9)

    def test_ascent_values_never_decrease(self, monkeypatch):
        runs = []
        monkeypatch.setattr(extremal, "_ascend", recording_ascent(runs))
        carleson_constant(SigmaSet((0.5, -0.3 + 0.4j, 0.1j, -0.6 - 0.2j)), budget=6, seed=2)
        assert len(runs) == 6
        for values in runs:
            assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))
        assert any(values[-1] > values[0] * (1 + 1e-6) for values in runs)

    @pytest.mark.parametrize("budget", [2, 8, 32])
    def test_lockstep_matches_sequential_ascent(self, monkeypatch, rng, budget):
        sets = [random_sigma(rng, n=n, r_max=0.8, distinct=True, min_sep=0.08) for n in (2, 3, 4, 6)]
        got = [carleson_constant(sigma, budget=budget, seed=5) for sigma in sets]
        monkeypatch.setattr(extremal, "_ascend", sequential_ascent)
        want = [carleson_constant(sigma, budget=budget, seed=5) for sigma in sets]
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_step_cap_returns_best_start(self, monkeypatch):
        # Pick value <= ||T : H^2 -> H^inf|| times the least H^2 norm of the data
        sigma = SigmaSet((0.5, -0.5, 0.3j, 0.1 - 0.6j))
        n, budget, seed = sigma.n, 8, 2
        factor = extremal._pick_factor(sigma.points)
        starts = carleson_starts(n, budget, seed)
        inv_gram = np.linalg.inv(gram_matrix(hardy(2), sigma))
        top = projection_operator_norm(hardy(2), sigma) * np.sqrt(
            n * np.linalg.norm(inv_gram, 2)
        )
        monkeypatch.setattr(extremal, "_ASCENT_STEPS", 1)
        value = carleson_constant(sigma, budget=budget, seed=seed)
        best_start = max(extremal._pick_value(factor, w) for w in starts)
        assert value == pytest.approx(best_start, rel=1e-12)
        assert value <= top + 1e-6


def test_import_leaves_out_scipy_optimize():
    src = Path(extremal.__file__).resolve().parents[1]
    code = "import sys, discinterp; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"
