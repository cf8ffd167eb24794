import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discinterp import (
    CoeffSeries,
    PoleOnDomain,
    SigmaSet,
    blaschke_coeffs,
    blaschke_eval,
    blaschke_factor,
    compose_with_blaschke,
    derivative,
    dirichlet_kernel,
    eval_series,
    fejer_kernel,
    hadamard_product,
    jet_values,
    series_power,
    series_product,
)

from discinterp import series

from conftest import random_poly


def disc_point(r_max):
    return st.tuples(
        st.floats(0.0, r_max), st.floats(0.0, 2.0 * np.pi)
    ).map(lambda t: t[0] * np.exp(1j * t[1]))


class TestEval:
    def test_all_ones_at_one(self):
        assert eval_series(CoeffSeries([1, 1, 1, 1]), 1.0) == pytest.approx(4.0)

    def test_zero_series(self):
        assert eval_series(CoeffSeries([0.0]), 0.5) == 0.0

    def test_direct_sum(self):
        assert eval_series(CoeffSeries([1, 2]), 1j) == pytest.approx(1 + 2j)

    def test_vectorised_matches_scalar(self, rng):
        f = random_poly(rng, 9)
        zs = rng.standard_normal(5) * 0.3 + 1j * rng.standard_normal(5) * 0.3
        vec = eval_series(f, zs)
        for z, v in zip(zs, vec):
            assert v == pytest.approx(eval_series(f, complex(z)))


class TestBlaschke:
    def test_zero_at_origin_is_minus_z(self):
        z = 0.3 - 0.4j
        assert blaschke_eval([0.0], z) == pytest.approx(-z)

    def test_vanishes_at_its_zero(self):
        assert abs(blaschke_eval([0.5], 0.5)) < 1e-15

    def test_double_zero_unimodular_on_circle(self):
        zs = np.exp(2j * np.pi * np.arange(128) / 128)
        vals = blaschke_eval([0.5, 0.5], zs)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12

    def test_pole_rejected(self):
        with pytest.raises(PoleOnDomain):
            blaschke_factor(1.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(zeros=st.lists(disc_point(0.95), min_size=1, max_size=10))
    def test_unimodular_on_circle(self, zeros):
        zs = np.exp(2j * np.pi * np.arange(512) / 512)
        vals = blaschke_eval(zeros, zs)
        assert np.max(np.abs(np.abs(vals) - 1.0)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(lam=disc_point(0.95))
    def test_involution(self, lam):
        zs = 0.97 * np.exp(2j * np.pi * np.arange(256) / 256)
        back = blaschke_factor(lam, blaschke_factor(lam, zs))
        assert np.max(np.abs(back - zs)) <= 1e-10

    def test_series_matches_pointwise(self, rng):
        zeros = (0.5, -0.2 + 0.3j, 0.1j)
        B = blaschke_coeffs(zeros, 220)
        zs = 0.5 * np.exp(2j * np.pi * rng.uniform(size=6))
        assert np.max(np.abs(eval_series(B, zs) - blaschke_eval(zeros, zs))) < 1e-12


class TestCompose:
    def test_lambda_zero_flips_signs(self):
        g = compose_with_blaschke(CoeffSeries([0, 1]), 0.0, n_out=3)
        assert np.allclose(g.coeffs, [0, -1, 0, 0], atol=1e-13)

    def test_geometric_expansion_of_factor(self):
        # b_lam has c_0 = lam and c_k = -(1-|lam|^2) conj(lam)^(k-1)
        lam = 0.6 - 0.25j
        g = compose_with_blaschke(CoeffSeries([0, 1]), lam, n_out=20)
        ks = np.arange(1, 21)
        expect = np.concatenate(
            [[lam], -(1.0 - abs(lam) ** 2) * np.conj(lam) ** (ks - 1)]
        )
        assert np.max(np.abs(g.coeffs - expect)) < 1e-12
        # cross-check by pointwise evaluation
        zs = 0.4 * np.exp(2j * np.pi * np.arange(7) / 7)
        assert np.max(
            np.abs(eval_series(g, zs) - blaschke_eval([lam], zs))
        ) < 1e-10

    @pytest.mark.parametrize("lam", [0.3, -0.5 + 0.4j, 0.9])
    def test_involution_round_trip(self, rng, lam):
        deg = 64
        f = random_poly(rng, deg)
        g = compose_with_blaschke(f, lam, n_out=1 << 12)
        back = compose_with_blaschke(g, lam, n_out=deg)
        assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-8

    def test_zero_input(self):
        g = compose_with_blaschke(CoeffSeries([0.0, 0.0]), 0.4, n_out=5)
        assert np.all(g.coeffs == 0)

    @pytest.mark.parametrize("lam", [0.9, -0.5 + 0.4j])
    def test_prefix_does_not_depend_on_output_length(self, rng, lam):
        f = random_poly(rng, 40)
        short = compose_with_blaschke(f, lam, n_out=300)
        long = compose_with_blaschke(f, lam, n_out=1200)
        assert np.array_equal(short.coeffs, long.coeffs[:301])

    @pytest.mark.parametrize("lam", [0.9, -0.5 + 0.4j, 0.99j])
    def test_powers_of_z_give_blaschke_powers(self, lam):
        for j in range(1, 7):
            monomial = CoeffSeries(np.eye(j + 1)[j])
            got = compose_with_blaschke(monomial, lam, n_out=400)
            want = blaschke_coeffs([lam] * j, 400)
            assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14


class TestKernelsAndProducts:
    def test_hadamard_identity(self, rng):
        f = random_poly(rng, 6)
        ones = CoeffSeries(np.ones(7))
        assert np.array_equal(hadamard_product(f, ones).coeffs, f.coeffs)

    def test_hadamard_annihilator(self, rng):
        f = random_poly(rng, 6)
        zero = CoeffSeries(np.zeros(7))
        assert np.all(hadamard_product(f, zero).coeffs == 0)

    def test_dirichlet_fejer_pairing_value(self):
        pk = hadamard_product(dirichlet_kernel(4), fejer_kernel(4))
        assert eval_series(pk, 1.0) == pytest.approx(2.5, abs=1e-14)

    def test_dirichlet_one(self):
        assert np.array_equal(dirichlet_kernel(1).coeffs, [1.0])

    def test_dirichlet_h2_norm(self):
        coeffs = dirichlet_kernel(4).coeffs
        assert np.sqrt(np.sum(np.abs(coeffs) ** 2)) == pytest.approx(2.0)

    def test_fejer_four(self):
        assert np.allclose(fejer_kernel(4).coeffs, [1.0, 0.75, 0.5, 0.25])

    def test_product_and_power_agree(self, rng):
        f = random_poly(rng, 5)
        sq = series_product(f, f)
        assert np.allclose(series_power(f, 2).coeffs, sq.coeffs, atol=1e-12)


class TestDerivative:
    def test_constant(self):
        assert np.array_equal(derivative(CoeffSeries([3.0])).coeffs, [0.0])

    def test_monomial(self):
        d = derivative(CoeffSeries([0, 0, 0, 0, 0, 1]))
        assert np.allclose(d.coeffs, [0, 0, 0, 0, 5])

    def test_dirichlet_slope_at_zero(self):
        d = derivative(dirichlet_kernel(6))
        assert eval_series(d, 0.0) == pytest.approx(1.0)


class TestSigmaSet:
    def test_counts_and_radius(self):
        s = SigmaSet((0.5, -0.25j, 0.5))
        assert s.n == 3
        assert s.r == pytest.approx(0.5)
        assert not s.is_distinct()
        assert s.single_point() is None

    def test_functional_orders(self):
        s = SigmaSet((0.5, 0.2, 0.5))
        assert s.functionals() == ((0.5 + 0j, 0), (0.2 + 0j, 0), (0.5 + 0j, 1))

    def test_jet_values_match_manual_derivatives(self, rng):
        f = random_poly(rng, 7)
        s = SigmaSet((0.3, 0.3, 0.3))
        jets = jet_values(f, s)
        h = 1e-5
        num_d1 = (eval_series(f, 0.3 + h) - eval_series(f, 0.3 - h)) / (2 * h)
        assert jets[0] == pytest.approx(eval_series(f, 0.3))
        assert jets[1] == pytest.approx(num_d1, rel=1e-7)

    def test_jet_values_match_derivative_chain_on_mixed_sigma(self, rng):
        f = random_poly(rng, 30)
        s = SigmaSet((0.0, 0.5, 0.0, -0.3 + 0.6j, 0.5, 0.0, 0.5))
        want = []
        for lam, d in s.functionals():
            g = f
            for _ in range(d):
                g = derivative(g)
            want.append(eval_series(g, lam))
        got = jet_values(f, s)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_rejects_boundary_point(self):
        with pytest.raises(PoleOnDomain):
            SigmaSet((1.0,))

    def test_rejects_non_finite_point(self):
        for p in (complex("nan"), complex("inf"), complex(0.1, float("nan"))):
            with pytest.raises(PoleOnDomain):
                SigmaSet((0.5, p))


class TestGeometricDivision:
    @pytest.mark.parametrize("a", [0.0, 0.3, -0.5 + 0.5j, 0.99j, 0.9999])
    def test_matches_recurrence(self, rng, a):
        c = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
        ref = np.empty_like(c)
        acc = 0j
        for k, ck in enumerate(c):  # out_k = c_k + a * out_{k-1}
            acc = ck + a * acc
            ref[k] = acc
        got = series._div_geometric(c, a)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_import_leaves_out_scipy_signal(self):
        src = Path(series.__file__).resolve().parents[1]
        code = "import sys, discinterp; print('scipy.signal' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"
