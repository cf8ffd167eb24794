import itertools
import math
from dataclasses import asdict, fields
from fractions import Fraction

import numpy as np
import pytest

from discinterp import (
    BoundReport,
    CoeffSeries,
    Divergence,
    PoleOnDomain,
    SigmaSet,
    SweepRow,
    UnsupportedSpace,
    bergman_radial,
    bound_sweep,
    bounds,
    carleson_constant,
    compose_with_blaschke,
    cs_min_norm,
    eval_functional_norm,
    extremal,
    fejer_kernel,
    hardy,
    interp_constant,
    jet_values,
    malmquist_basis,
    min_norm_trace,
    norm,
    projection_operator_norm,
    quotient_norm,
    seq_weighted,
    series,
    series_power,
    theorem_bounds,
    witness_lower_bound,
)
from discinterp.spaces import _malmquist_cholesky, _malmquist_gram, _mobius_exponent

from conftest import random_sigma, recording_ascent, sequential_ascent

# Nelder-Mead estimates (budget max(8, n + 3), 60 evaluations per start) on
# the 30 criterion-10 draws of rng(110); each is an attained value of J
NELDER_MEAD_CRITERION_10 = (
    1.5344571031703136, 1.396186917697097, 1.8770425851492003, 1.6250883232480733,
    1.5066585858823245, 1.8971581880760628, 1.4339952093908406, 1.6085352377341928,
    1.9412181878242716, 1.447801748454976, 1.718840912505045, 1.2744451108011854,
    1.7291875949355748, 1.7610402453774245, 1.755444657189816, 1.6417862408939736,
    1.7092812883189765, 1.4840088316748148, 1.3136098479151317, 1.4796470521599132,
    1.0448116435208032, 1.7877732928628618, 1.3206910091425237, 1.1160263527645549,
    1.560179131565923, 1.869174841598174, 1.0806637677485205, 1.8493837175787042,
    1.5011855776274088, 1.4353916266419742,
)


def exact_least_norm(r, n, e):
    """s^e ||(W / (1 - r z)^e)[:n]|| in exact rationals, s^2 = 1 - r^2, W = K_n^e(-z).

    The norm is that of H^2 for e = 1 and that of l^2_a(1.5) for e = 2, and
    the Fejer coefficients 1 - k/n are taken exact: a reference for the
    least norm with the jet of the transplanted witness that shares no code
    with the library.
    """
    x = Fraction(r)
    fejer = [1 - Fraction(k, n) for k in range(n)]
    K = fejer
    if e == 2:
        K = [sum(fejer[j] * fejer[k - j] for j in range(k + 1)) for k in range(n)]
    q = [(-1) ** k * c for k, c in enumerate(K)]
    for _ in range(e):
        q = list(itertools.accumulate(q, lambda acc, c: acc * x + c))
    total = sum(c * c / (k + 1) ** (e - 1) for k, c in enumerate(q))
    return math.sqrt((1 - x * x) ** e * total)


def turned_kernel(space, lam, n):
    """K_n^m with coefficient k times (-conj(lam) / |lam|)^k: its peak faces away from lam.

    The kernel itself at lam = 0; the reference witness for the transplant.
    """
    K = series_power(fejer_kernel(n), bounds._witness_power(space))
    if lam == 0:
        return K
    return CoeffSeries(K.coeffs * (-np.conj(lam) / abs(lam)) ** np.arange(len(K)))


class TestTheoremBounds:
    def test_hardy2_frozen_row(self):
        rep = theorem_bounds(hardy(2), 8, 0.5)
        assert rep.lower == pytest.approx(np.sqrt(16.0) / np.sqrt(32.0), abs=1e-12)
        assert rep.upper == pytest.approx(np.sqrt(2.0 * 16.0), abs=1e-12)
        assert rep.lower_known and rep.upper_known

    def test_single_origin_phi_scale(self):
        rep = theorem_bounds(hardy(2), 1, 0.0)
        assert rep.phi_scale == pytest.approx(1.0)

    def test_seq_exponent(self):
        # alpha = 1.5 gives exponent (2 alpha - 1)/2 = 1 on n/(1-r)
        r1 = theorem_bounds(seq_weighted(2, 1.5), 4, 0.5)
        r2 = theorem_bounds(seq_weighted(2, 1.5), 8, 0.5)
        assert r2.lower / r1.lower == pytest.approx(2.0, rel=1e-12)
        assert not r1.lower_known

    def test_seq_general_p_orders(self):
        rep = theorem_bounds(seq_weighted(4, 1.5), 5, 0.5)
        assert rep.lower == pytest.approx((1 / 0.5) ** (1.5 - 0.25), rel=1e-12)
        assert rep.upper == pytest.approx(10.0 ** (1.5 + 0.5 - 0.5), rel=1e-12)

    def test_bergman_jet_upper(self):
        rep = theorem_bounds(bergman_radial(1, 0.0), 5, 0.5)
        assert rep.upper == pytest.approx(10.0**2, rel=1e-12)
        assert rep.lower == 0.0
        # the sharp L^1_a evaluation norm at t = 0.9: (1/pi) (1 - t^2)^-2
        assert rep.phi_scale == pytest.approx(8.81744837074213, rel=1e-14, abs=0.0)

    def test_diverging_phi_scale_is_none(self):
        # at t = 1 - 1e-5 / 96 the l^2_a(4) dual-weight sum needs more than 2^21 terms
        rep = theorem_bounds(seq_weighted(2, 4.0), 96, 0.999)
        assert rep.phi_scale is None
        assert 0.0 < rep.lower <= rep.upper < np.inf
        assert theorem_bounds(seq_weighted(2, 4.0), 64, 0.999).phi_scale > 0.0

    def test_phi_scale_near_the_kmax(self):
        # l^2_a(3) at t = 1 - 1e-5 / 96 needs about 2.0e6 of the 2^21 terms:
        # the square of the norm is sum_k (k+1)^4 x^k = A_4(x) / (1-x)^5,
        # x = t^2, A_4 = 1 + 11 x + 11 x^2 + x^3, taken exactly
        x = Fraction(1.0 - (1.0 - 0.999) / 96) ** 2
        want = math.sqrt((1 + 11 * x + 11 * x**2 + x**3) / (1 - x) ** 5)
        got = theorem_bounds(seq_weighted(2, 3.0), 96, 0.999).phi_scale
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_consistency_with_eval_functional(self):
        rep = theorem_bounds(seq_weighted(2, 1.5), 4, 0.6)
        t = 1.0 - (1.0 - 0.6) / 4
        assert rep.phi_scale == pytest.approx(
            eval_functional_norm(seq_weighted(2, 1.5), t)
        )

    @pytest.mark.parametrize("n", [2.5, 2.0, 0, -3])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(ValueError):
            theorem_bounds(hardy(2), n, 0.5)

    def test_numpy_integer_n_is_an_int(self):
        rep = theorem_bounds(hardy(2), np.uint8(8), 0.5)
        assert type(rep.n) is int and rep == theorem_bounds(hardy(2), 8, 0.5)

    def test_lower_never_exceeds_upper(self):
        specs = [hardy(2), hardy(4), seq_weighted(2, 1.5), seq_weighted(1.5, 2.0),
                 seq_weighted(4, 1.5), bergman_radial(2, 0.5), bergman_radial(1, 0.0)]
        for space in specs:
            for n in (1, 4, 16):
                for r in (0.0, 0.5, 0.9):
                    rep = theorem_bounds(space, n, r)
                    assert rep.lower <= rep.upper + 1e-12


class TestWitness:
    def test_trivial_single_point(self):
        assert witness_lower_bound(hardy(2), 0.0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_origin_ratio_beats_half_sqrt_n(self):
        for n in (4, 9, 16):
            w = witness_lower_bound(hardy(2), 0.0, n)
            assert w >= 0.5 * np.sqrt(n)

    def test_certifies_lower_bound_against_estimate(self):
        # any witness ratio is a valid lower bound for the constant
        n, lam = 3, 0.4
        w = witness_lower_bound(hardy(2), lam, n)
        est = interp_constant(hardy(2), SigmaSet((lam,) * n), budget=12, seed=5)
        top = projection_operator_norm(hardy(2), SigmaSet((lam,) * n))
        assert w <= est + 1e-6
        assert est <= top + 1e-6

    def test_sandwich_on_repeated_point_classes(self, rng):
        # witness <= estimate <= operator norm for n <= 6, |lam| <= 0.8
        for _ in range(6):
            n = int(rng.integers(1, 7))
            lam = complex(*(0.8 / np.sqrt(2) * rng.uniform(-1, 1, size=2)))
            sigma = SigmaSet((lam,) * n)
            w = witness_lower_bound(hardy(2), lam, n)
            est = interp_constant(hardy(2), sigma, budget=4)
            top = projection_operator_norm(hardy(2), sigma)
            assert w <= est + 1e-6
            assert est <= top + 1e-6

    def test_monotone_in_r(self):
        for n in (2, 6):
            vals = [witness_lower_bound(hardy(2), r, n) for r in (0.0, 0.3, 0.6, 0.9)]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_h2_norm_of_transplant_matches_gram_oracle(self):
        # ||W o b_lam||_2^2 = sum W_j conj(W_k) lam^(j-k) via <b^j, b^k> = lam^(j-k)
        import discinterp as di

        n, lam = 6, 0.7
        base = di.hadamard_product(di.dirichlet_kernel(n), di.fejer_kernel(n))
        eta = -1.0
        W = di.CoeffSeries(base.coeffs * eta ** np.arange(n))
        f = di.compose_with_blaschke(W, lam, n_out=1 << 12)
        gram = np.fromfunction(
            lambda j, k: np.where(j >= k, lam ** (j - k), lam ** (k - j)), (n, n)
        )
        oracle = np.sqrt(np.real(W.coeffs.conj() @ gram @ W.coeffs))
        assert norm(hardy(2), f) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("space", [hardy(2), seq_weighted(2, 1.5), seq_weighted(2, 2)])
    def test_matches_composition_at_fixed_length(self, rng, space):
        # against W o b_lam composed to degree 2^15: the witness divides by the
        # least norm with its jet on (lam,)*n, at most the norm of that series,
        # and the least norm min_norm_trace finds for the composed jet (whose
        # jets lose digits past n of about 20, so it is compared up to n = 8)
        for n in range(1, 25):
            lam = 0.95 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            W = turned_kernel(space, lam, n)
            composed = compose_with_blaschke(W, lam, n_out=1 << 15)
            top = cs_min_norm(W.coeffs[:n]).value
            got = witness_lower_bound(space, lam, n)
            assert got >= top / norm(space, composed) * (1 - 1e-12), n
            if n <= 8 and abs(lam) <= 0.8:
                sigma = SigmaSet((lam,) * n)
                least = min_norm_trace(space, sigma, jet_values(composed, sigma)).norm
                assert got == pytest.approx(top / least, rel=1e-12), n

    @pytest.mark.parametrize("lam, n, value", [(0.999, 32, 87.83992641), (0.9999, 4, 104.06980996)])
    def test_near_circle_h2_matches_coordinate_sum(self, lam, n, value):
        # the least H^2 norm with the jet of W o b_lam on (lam,)*n is
        # s ||h[:n]||_2, h = W / (1 - conj(lam) z): U f = (f o b_lam) b_lam'^(1/2)
        # is unitary, and U(W o b_lam) is W b_lam'^(1/2), a unimodular multiple of s h
        W = turned_kernel(hardy(2), lam, n)
        h = series._div_geometric(W.coeffs, np.conj(lam))
        s2 = (1.0 - abs(lam)) * (1.0 + abs(lam))
        norm2 = s2 * np.sum(np.abs(h[:n]) ** 2)
        want = cs_min_norm(W.coeffs[:n]).value / np.sqrt(norm2)
        got = witness_lower_bound(hardy(2), lam, n)
        assert got == pytest.approx(want, rel=1e-12)
        exact = cs_min_norm(W.coeffs[:n]).value / exact_least_norm(lam, n, 1)
        assert got == pytest.approx(exact, rel=1e-12)
        assert got == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 0.99, 0.999, 0.9999])
    def test_h2_norm_is_the_coordinate_sum(self, monkeypatch, rng, r):
        # the Malmquist basis is orthonormal in H^2, so the least norm with the
        # jet of W o b_lam on (lam,)*n is that of its projection onto the model
        # space, s^2 sum_(k<n) |h_k|^2 exactly, and nothing walks the powers of T_B
        def refuse(*args):
            raise AssertionError("the H^2 witness walked the powers of T_B")

        monkeypatch.setattr("discinterp.spaces._stein_blocks", refuse)
        for n in range(1, 33):
            lam = r * np.exp(2j * np.pi * rng.uniform())
            W = turned_kernel(hardy(2), lam, n)
            h = series._div_geometric(W.coeffs, np.conj(lam))
            norm2 = (1.0 - abs(lam)) * (1.0 + abs(lam)) * math.fsum(np.abs(h[:n]) ** 2)
            want = cs_min_norm(W.coeffs[:n]).value / math.sqrt(norm2)
            assert witness_lower_bound(hardy(2), lam, n) == pytest.approx(want, rel=1e-15)
        if r == 0.9999:
            got = witness_lower_bound(hardy(2), r, 4)
            assert got == pytest.approx(104.06980995986886, rel=1e-15)

    @pytest.mark.parametrize("r", [0.99, 0.999])
    def test_h2_witness_reaches_the_hardy_lower_column(self, r):
        # the hardy-lower column sqrt(x / 32), x = n / (1 - r), past criterion 7's r <= 0.9
        for n in range(4, 65):
            got = witness_lower_bound(hardy(2), r, n)
            assert got >= math.sqrt(n / (1.0 - r) / 32.0), n

    @pytest.mark.parametrize("space", [seq_weighted(2, 2), seq_weighted(2, 2.5),
                                       seq_weighted(2, 3)], ids=lambda space: space.label())
    def test_estimate_reaches_the_witness_off_the_moebius_spaces(self, rng, space):
        # the witness is the J of the ascent's first start, at the default budget too
        for n in (1, 2, 3, 4, 6, 8, 12, 16):
            for r in (0.0, 0.5, 0.9, 0.99, 0.999):
                lam = r * np.exp(2j * np.pi * rng.uniform())
                witness = witness_lower_bound(space, lam, n)
                est = interp_constant(space, SigmaSet((lam,) * n))
                assert est >= witness * (1 - 1e-12), (n, lam, est, witness)

    def test_near_half_integer_alpha_takes_the_least_norm(self):
        # alpha within 1e-9 of 1.5 takes the kernel power m = 2 (spaces._kernel_power)
        # and, with no Moebius exponent, the stream's L: the least norm with
        # the jet, as at alpha = 1.5, where dividing by the norm of the
        # transplant read 32.19
        got = witness_lower_bound(seq_weighted(2, 1.5 + 1e-12), 0.9, 8)
        assert got == pytest.approx(36.45064498, rel=1e-9, abs=0.0)
        assert got == pytest.approx(witness_lower_bound(seq_weighted(2, 1.5), 0.9, 8),
                                    rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("lam, n, value", [(0.999, 32, 11036.127), (0.9999, 4, 12492.403)])
    def test_near_circle_weighted_is_finite(self, lam, n, value):
        got = witness_lower_bound(seq_weighted(2, 1.5), lam, n)
        assert np.isfinite(got)
        assert got == pytest.approx(value, rel=1e-5)

    def test_bergman_norm_is_the_change_of_variables(self, monkeypatch):
        # l^2_a(1.5) is the area norm of A^2, where U f = (f o b_r) b_r' is
        # unitary, so the least norm with the jet of W o b_r on (r,)*n is
        # (1 - r^2) ||(W / (1 - r w)^2)[:n]||: against the least norm over the
        # Stein Gram S = L L^H of (r,)*n, ||L^-1 b|| for the transplant's
        # Malmquist coordinates b = s h[:n], with no series and no walk built
        space = seq_weighted(2, 1.5)
        want = {}
        for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
            for r in (0.3, 0.5, 0.9, 0.99, 0.999):
                K, h = bounds._witness_at(space, r, n)
                L = _malmquist_cholesky(space, SigmaSet((r,) * n))
                least = np.linalg.norm(np.linalg.solve(L, math.sqrt(1.0 - r**2) * h[:n]))
                want[n, r] = extremal._jet_norm(K[:n]) / least

        def refuse(*args):
            raise AssertionError("the l^2_a(1.5) witness walked the powers of T_B")

        monkeypatch.setattr("discinterp.spaces._stein_blocks", refuse)
        for (n, r), value in want.items():
            got = witness_lower_bound(space, r, n)
            assert got == pytest.approx(value, rel=1e-13, abs=0.0), (n, r)

    def test_near_circle_bergman_tail_is_finite(self):
        # at n = 2 the jet (1, 1) has the golden ratio for its norm, and the
        # least norm is (1 - r^2) sqrt(1 + (2r - 1)^2 / 2), taken exact
        got = witness_lower_bound(seq_weighted(2, 1.5), 0.99998, 2)
        want = (1 + math.sqrt(5)) / 2 / exact_least_norm(0.99998, 2, 2)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert got == pytest.approx(33028.751151530036, rel=1e-13, abs=0.0)

    def test_bergman_tail_near_a_root_of_its_last_term(self):
        # at n = 2 the last coefficient of (W / (1 - r w)^2)[:2] is 2r - 1,
        # which vanishes at r = 1/2; nothing cancels in its square
        for r in (0.4999999, 0.499999):
            got = witness_lower_bound(seq_weighted(2, 1.5), r, 2)
            want = (1 + math.sqrt(5)) / 2 / exact_least_norm(r, 2, 2)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), r

    @pytest.mark.parametrize(
        "space, n, r",
        [(seq_weighted(2, 1.5), 2, 0.9999999), (seq_weighted(2, 1.5), 64, 1 - 1e-9),
         (hardy(2), 64, 1 - 1e-9)],
    )
    def test_finite_up_to_the_circle(self, space, n, r):
        # the least norm is n terms at every r < 1, where the norm of the
        # transplant needed more than 2^21 terms on l^2_a(1.5)
        got = witness_lower_bound(space, r, n)
        assert 0.0 < got < math.inf
        assert got >= witness_lower_bound(space, 0.999, n)
        e = bounds._witness_power(space)
        jet = bounds._witness_at(space, 0.0, n)[0][:n]
        want = cs_min_norm(jet).value / exact_least_norm(r, n, e)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("space", [seq_weighted(2, 1.5), seq_weighted(2, 2), hardy(2)])
    def test_ignores_the_phase_of_lam(self, rng, space):
        # W o b_lam(e^(i phi) z) = W_r o b_r(z), r = |lam|, and the norms are
        # radial, so the witness is read at |lam| alone, bitwise
        for n in (4, 16, 32, 64):
            for r in (0.5, 0.9, 0.99):
                lam = r * np.exp(2j * np.pi * rng.uniform())
                assert witness_lower_bound(space, lam, n) == witness_lower_bound(space, abs(lam), n)

    @pytest.mark.parametrize("space", [hardy(2), seq_weighted(2, 1.5)])
    def test_witness_paths_do_not_evaluate_series_pointwise(self, monkeypatch, space):
        def refuse(*args, **kwargs):
            raise AssertionError("eval_series called on a witness path")

        monkeypatch.setattr(series, "eval_series", refuse)
        assert witness_lower_bound(space, 0.7, 4) > 0.0
        assert interp_constant(space, SigmaSet((0.7,) * 4), budget=4) > 0.0

    @pytest.mark.parametrize("lam", [1.0, -1.5j, complex("nan")])
    @pytest.mark.parametrize("n", [1, 3])
    def test_rejects_point_off_the_open_disc(self, lam, n):
        with pytest.raises(PoleOnDomain):
            witness_lower_bound(hardy(2), lam, n)

    @pytest.mark.parametrize("space", [hardy(2), seq_weighted(2, 1.5), seq_weighted(2, 2)])
    def test_jet_norm_is_rotation_invariant(self, rng, space):
        # T(eta^k c_k) = D T(c) D^H with D = diag(eta^i) unitary: the real
        # value-only norm of the unrotated jet is that of every rotation
        for n in range(1, 65):
            jet, _ = bounds._witness_parts(space, 0.0, n)
            assert jet.dtype == float
            got = extremal._jet_norm(jet)
            for eta in (-1.0, np.exp(1j * rng.uniform(-np.pi, np.pi))):
                want = cs_min_norm(jet * eta ** np.arange(n)).value
                assert got == pytest.approx(want, rel=1e-14, abs=0.0), (n, eta)

    def test_builds_no_singular_vectors(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("singular vectors built on the witness path")

        monkeypatch.setattr(extremal, "_norm_result", refuse)
        for space in (hardy(2), seq_weighted(2, 1.5)):
            assert witness_lower_bound(space, 0.5j, 8) > 0.0
            res = bound_sweep(space, [2, 8], [0.0, 0.9])
            assert all(row.witness > 0.0 for row in res.rows)

    @pytest.mark.parametrize("n", [2.5, 2.0, "3", None, 0, -2])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(ValueError):
            witness_lower_bound(hardy(2), 0.5, n)

    def test_unsupported_space(self):
        with pytest.raises(UnsupportedSpace):
            witness_lower_bound(hardy(4), 0.0, 4)
        with pytest.raises(UnsupportedSpace):
            witness_lower_bound(seq_weighted(2, 1.25), 0.0, 4)


class TestInterpConstant:
    def test_single_origin(self):
        assert interp_constant(hardy(2), SigmaSet((0.0,)), budget=2) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_single_point_closed_form(self):
        got = interp_constant(hardy(2), SigmaSet((0.8,)), budget=2)
        assert got == pytest.approx(5.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("r", [0.99, 0.995, 0.999, 0.9995, 0.9999])
    def test_one_point_near_boundary_is_eval_norm(self, r):
        # one point: the constant is the evaluation norm, in closed form here
        sigma = SigmaSet((r * np.exp(0.7j),))
        s = 1.0 - r * r
        cases = [(hardy(2), s**-0.5), (seq_weighted(2, 1.5), 1.0 / s)]
        for beta in (1.0, -0.5):
            want = np.sqrt((beta + 1.0) / np.pi) * s ** (-(beta + 2.0) / 2.0)
            cases.append((bergman_radial(2, beta), want))
        for space, want in cases:
            got = interp_constant(space, sigma, budget=2)
            assert got == pytest.approx(want, rel=1e-11, abs=0.0), space.label()

    def test_never_exceeds_projection_norm(self, rng):
        for _ in range(5):
            sigma = random_sigma(rng, n_max=4, r_max=0.75, distinct=True)
            est = interp_constant(hardy(2), sigma, budget=6)
            top = projection_operator_norm(hardy(2), sigma)
            assert est <= top + 1e-6

    def test_mixed_multiplicity_sandwich(self):
        # probes <= estimate <= operator norm on a mixed multiset
        sigma = SigmaSet((0.3, -0.4 + 0.2j, 0.3, 0.1j, 0.3))
        space = hardy(2)
        n = sigma.n
        probes = [np.eye(n, dtype=complex)[0],
                  np.ones(n, dtype=complex) / np.sqrt(n),
                  np.array([(-1.0) ** k for k in range(n)], dtype=complex) / np.sqrt(n)]
        best_probe = 0.0
        for a in probes:
            res = min_norm_trace(space, sigma, a)
            best_probe = max(
                best_probe, quotient_norm(res.interpolant, sigma).value / res.norm
            )
        est = interp_constant(space, sigma, budget=8)
        top = projection_operator_norm(space, sigma)
        assert best_probe <= est + 1e-6
        assert est <= top + 1e-6

    def test_matches_literal_ratio_path(self, rng):
        # the solver's jet objective equals quotient(min-norm rep)/min-norm
        sigma = SigmaSet((0.3, -0.2 + 0.4j, 0.1))
        space = hardy(2)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = a / np.linalg.norm(a)
        res = min_norm_trace(space, sigma, a)
        literal = quotient_norm(res.interpolant, sigma).value / res.norm
        est = interp_constant(space, sigma, budget=4)
        assert literal <= est + 1e-6

    def test_jet_objective_consistency_multiplicity(self, rng):
        sigma = SigmaSet((0.5,) * 3)
        space = hardy(2)
        best_literal = 0.0
        for _ in range(4):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            res = min_norm_trace(space, sigma, a)
            best_literal = max(
                best_literal, quotient_norm(res.interpolant, sigma).value / res.norm
            )
        est = interp_constant(space, sigma, budget=8)
        assert best_literal <= est * (1 + 1e-7) + 1e-9

    def test_rotation_invariance(self):
        sigma = SigmaSet((0.3, -0.5))
        v1 = interp_constant(hardy(2), sigma, budget=6, seed=2)
        v2 = interp_constant(hardy(2), sigma.rotated(1.1), budget=6, seed=2)
        assert v1 == pytest.approx(v2, abs=2e-5)

    def test_carleson_route_upper_bound(self):
        sigma = SigmaSet((0.4, -0.4))
        c_small = carleson_constant(sigma, budget=8, seed=7)
        c_big = carleson_constant(sigma, budget=16, seed=7)
        est = interp_constant(hardy(2), sigma, budget=8, seed=7)
        phi_max = max(eval_functional_norm(hardy(2), abs(p)) for p in sigma.points)
        if abs(c_big - c_small) < 1e-4:  # multistart certificate stabilised
            assert est <= c_big * phi_max + 1e-6

    def test_reaches_frozen_nelder_mead_values(self):
        rng = np.random.default_rng(110)
        space = hardy(2)
        for frozen in NELDER_MEAD_CRITERION_10:
            sigma = random_sigma(rng, n_max=5, r_max=0.8, distinct=True, min_sep=0.08)
            est = interp_constant(space, sigma, budget=max(8, sigma.n + 3))
            assert est >= frozen * (1 - 1e-9)
            assert est <= projection_operator_norm(space, sigma) + 1e-6

    @pytest.mark.parametrize(
        "points",
        [(0.3, -0.5, 0.2j, 0.6 + 0.1j), (0.5,) * 4, (0.3, -0.4 + 0.2j, 0.3, 0.1j, 0.3)],
    )
    def test_ascent_values_never_decrease(self, monkeypatch, points):
        runs = []
        monkeypatch.setattr(bounds, "_ascend", recording_ascent(runs))
        interp_constant(hardy(2), SigmaSet(points), budget=6, seed=4)
        assert len(runs) >= 6
        for values in runs:
            assert all(b >= a * (1 - 1e-12) for a, b in zip(values, values[1:]))
        assert any(values[-1] > values[0] * (1 + 1e-6) for values in runs)

    @pytest.mark.parametrize("points", [(0.3, -0.5, 0.2j), (0.3, -0.4 + 0.2j, 0.3, 0.1j, 0.3)])
    def test_one_step_cap_returns_best_start(self, monkeypatch, points):
        # each start b is scored by the jet route: the jet of g = sum_k b_k e_k
        space, sigma = hardy(2), SigmaSet(points)
        E = malmquist_basis(sigma).coeff_matrix()
        best_start = 0.0
        for b in bounds._starts(sigma.n, 6, 3):
            res = min_norm_trace(space, sigma, jet_values(CoeffSeries(b @ E), sigma))
            best_start = max(
                best_start, quotient_norm(res.interpolant, sigma).value / res.norm
            )
        monkeypatch.setattr(extremal, "_ASCENT_STEPS", 1)
        est = interp_constant(space, sigma, budget=6, seed=3)
        assert est == pytest.approx(best_start, rel=1e-9)
        assert est <= projection_operator_norm(space, sigma) + 1e-6

    def test_certified_stop_on_a_degenerate_shift(self, monkeypatch):
        # on (0, 0) in l^2_a(1.5) the flattening bound is the constant sqrt(2),
        # which the unit start e_1 attains at once; the witness start alone
        # would creep through all _ASCENT_STEPS SVDs to 5e-7 below it
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        est = interp_constant(seq_weighted(2, 1.5), SigmaSet((0, 0)), budget=2)
        assert est == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert len(calls) <= 3

    def test_estimate_within_flattening_bound(self, monkeypatch):
        # estimate <= upper on the criterion-10 draws, the high-multiplicity
        # cells and single points, with equality at n = 1
        uppers = []
        ascend = extremal._ascend

        def recording(factor, starts, update, upper):
            uppers.append(upper)
            return ascend(factor, starts, update, upper)

        monkeypatch.setattr(bounds, "_ascend", recording)
        rng = np.random.default_rng(110)
        cases = []
        for _ in NELDER_MEAD_CRITERION_10:
            sigma = random_sigma(rng, n_max=5, r_max=0.8, distinct=True, min_sep=0.08)
            cases.append((hardy(2), sigma, max(8, sigma.n + 3)))
        for space in (hardy(2), seq_weighted(2, 1.5)):
            for r in (0.0, 0.5, 0.9):
                for n in (2, 4, 8, 12, 16, 24, 32):
                    cases.append((space, SigmaSet((complex(r),) * n), 4))
        for space in (hardy(2), seq_weighted(2, 1.5), bergman_radial(2, 1)):
            for lam in (0.0, 0.5, 0.3 - 0.6j, 0.9):
                cases.append((space, SigmaSet((lam,)), 2))
        for space, sigma, budget in cases:
            est = interp_constant(space, sigma, budget=budget)
            assert est <= uppers[-1] * (1 + 1e-12), (space, sigma.points, est, uppers[-1])
            if sigma.n == 1:
                assert est == pytest.approx(uppers[-1], rel=1e-12)

    @pytest.mark.parametrize("budget", [1, 2, 8, 32])
    def test_lockstep_matches_sequential_ascent(self, monkeypatch, budget):
        # at budget 1 the witness start on (0, 0) in l^2_a(1.5) creeps to 5e-7
        # below the bound sqrt(2): a stop looser than _ASCENT_RTOL shows there
        rng = np.random.default_rng(19)
        sets = [SigmaSet((0, 0)), SigmaSet((0.5,) * 3)]
        for n in (1, 3, 5):
            sets.append(random_sigma(rng, n=n, r_max=0.8, distinct=True, min_sep=0.08))
            points = random_sigma(rng, n=n, r_max=0.8).points
            sets.append(SigmaSet(points + points[:1]))
        cases = [
            (space, sigma)
            for space in (hardy(2), seq_weighted(2, 1.5), bergman_radial(2, 1))
            for sigma in sets
        ]
        got = [interp_constant(space, sigma, budget=budget, seed=3) for space, sigma in cases]
        monkeypatch.setattr(bounds, "_ascend", sequential_ascent)
        want = [interp_constant(space, sigma, budget=budget, seed=3) for space, sigma in cases]
        assert got == pytest.approx(want, rel=1e-12)

    def test_factors_nodes_once_per_call(self, monkeypatch):
        calls = []
        factor = bounds._malmquist_factor

        def counted(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(bounds, "_malmquist_factor", counted)
        interp_constant(hardy(2), SigmaSet((0.3, -0.5, 0.2j)), budget=4, seed=1)
        assert len(calls) == 1

        def refuse(*args):
            raise AssertionError("a one-point H^2 cell left the closed form")

        # one repeated point on H^2 takes the closed-form factor and the Toeplitz stack
        monkeypatch.setattr(bounds, "_malmquist_factor", refuse)
        monkeypatch.setattr("discinterp.spaces._stein_blocks", refuse)
        assert interp_constant(hardy(2), SigmaSet((0.3,) * 3), budget=2) > 0.0


    @pytest.mark.parametrize("lam", [0.5, 0.3 - 0.6j, 0.9j, 0.0])
    def test_witness_start_is_the_projected_transplant(self, monkeypatch, lam):
        # the closed-form start equals the Malmquist coordinates of W o b_lam;
        # the ascent receives it as y = L^-1 b, so L y is compared
        n, starts = 6, []
        monkeypatch.setattr(bounds, "_ascend", lambda f, xs, u, upper: starts.extend(xs) or 0.0)
        sigma = SigmaSet((lam,) * n)
        E = malmquist_basis(sigma).coeff_matrix()
        for space in (hardy(2), seq_weighted(2, 1.5)):
            starts.clear()
            interp_constant(space, sigma, budget=2)
            b = _malmquist_cholesky(space, sigma) @ starts[0]
            f = compose_with_blaschke(turned_kernel(space, lam, n), lam, n_out=1 << 12)
            m = min(E.shape[1], len(f))
            coords = E[:, :m].conj() @ f.coeffs[:m]
            assert np.max(np.abs(b / np.linalg.norm(b) - coords / np.linalg.norm(coords))) <= 1e-14


    @pytest.mark.parametrize("space", [hardy(2), seq_weighted(2, 1), seq_weighted(2, 1.5),
                                       seq_weighted(2, 2), seq_weighted(2, 2.5),
                                       seq_weighted(2, 3)])
    def test_witness_is_the_value_of_its_start(self, monkeypatch, space):
        # the witness divides by the least norm with the transplant's jet,
        # which is the J of its coordinates, the first start
        values = []

        def first_value(factor, starts, update, upper):
            values.append(extremal._pick_value(factor, starts[0]))
            return 0.0

        monkeypatch.setattr(bounds, "_ascend", first_value)
        for n in (2, 5, 9):
            for lam in (0.3, 0.7j, -0.9 + 0.1j):
                interp_constant(space, SigmaSet((lam,) * n), budget=2)
                want = witness_lower_bound(space, lam, n)
                assert values[-1] == pytest.approx(want, rel=1e-13, abs=0.0), (n, lam)


def resolvent_stack(lam, L):
    """The stack of (lam,)*n from the resolvents of T_B, in place of _one_point_stack."""
    return extremal._malmquist_factor((lam,) * L.shape[0], L)


FRAME_SPACES = [hardy(2), seq_weighted(2, 1), seq_weighted(2, 1.5)] + [
    bergman_radial(2, beta) for beta in (-0.5, 0.0, 1.0, 3.0)
]


class TestOriginFrame:
    """One repeated point: L in closed form on a Moebius-invariant space, a Toeplitz stack on all."""

    @pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda space: space.label())
    def test_matches_the_malmquist_path(self, monkeypatch, space):
        # the same ascent from the same starts on the resolvent stack of the
        # same L, unitarily equivalent to the Toeplitz one; a phase is taken up
        # to r = 0.99, where the resolvents' own rounding stays below 1e-12
        cells = [(n, lam, budget) for n in range(1, 17)
                 for lam in (0.0, 0.5, 0.9, 0.99, 0.999, 0.99 * np.exp(0.7j))
                 for budget in (2, n + 2)]
        got = [interp_constant(space, SigmaSet((lam,) * n), budget) for n, lam, budget in cells]
        monkeypatch.setattr(bounds, "_one_point_stack", resolvent_stack)
        for (n, lam, budget), value in zip(cells, got):
            want = interp_constant(space, SigmaSet((lam,) * n), budget)
            assert value == pytest.approx(want, rel=1e-12, abs=0.0), (n, lam, budget)

    @pytest.mark.parametrize("space", [seq_weighted(2, 2), seq_weighted(2, 6)],
                             ids=lambda space: space.label())
    def test_stack_matches_the_resolvents_off_the_moebius_spaces(self, monkeypatch, space):
        # the Toeplitz stack of the stream's L against the resolvents of T_B
        cells = [(n, lam) for n in (1, 2, 3, 5, 8, 12, 16)
                 for lam in (0.0, 0.5, 0.9, 0.99, 0.99 * np.exp(0.7j))]
        got = [interp_constant(space, SigmaSet((lam,) * n), n + 2) for n, lam in cells]
        monkeypatch.setattr(bounds, "_one_point_stack", resolvent_stack)
        for (n, lam), value in zip(cells, got):
            want = interp_constant(space, SigmaSet((lam,) * n), n + 2)
            assert value == pytest.approx(want, rel=1e-11, abs=0.0), (n, lam)

    @pytest.mark.parametrize("space", [seq_weighted(2, 2), seq_weighted(2, 3)],
                             ids=lambda space: space.label())
    def test_one_point_factor_ignores_the_phase(self, space):
        # (lam,)*n is (|lam|,)*n turned by Z = diag(e^(i k arg lam)), so L is
        # Z^H L_r Z with L_r real, and the constant's spread over the phase is
        # the ascent's own; the stream run at lam spread 2.7e-12 and 3.0e-12 here
        n, values = 16, []
        for t in (0.0, 0.7, 2.0, np.pi):
            lam = 0.999 * np.exp(1j * t)
            L_r = _malmquist_cholesky(space, SigmaSet((abs(lam),) * n))
            assert L_r.dtype == np.float64
            turn = np.exp(1j * np.angle(lam) * np.arange(n))
            got = _malmquist_cholesky(space, SigmaSet((lam,) * n))
            assert np.array_equal(got, turn.conj()[:, None] * L_r * turn), t
            values.append(interp_constant(space, SigmaSet((lam,) * n), budget=n + 2))
        assert max(values) - min(values) <= 1e-12 * max(values)

    @pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda space: space.label())
    def test_factor_is_the_cholesky_factor(self, monkeypatch, space):
        # L = s^(1-e) T(p') D^(1/2) is lower triangular with a positive
        # diagonal, so it is the Cholesky factor of the Stein Gram itself,
        # taken with no walk, and its Toeplitz stack has the flattening bound
        # of the resolvent stack
        def refuse(*args):
            raise AssertionError("the closed-form factor walked the powers of T_B")

        for n in (1, 2, 5, 9, 16):
            for lam in (0.0, 0.6, -0.3 + 0.8j, 0.99j):
                sigma = SigmaSet((lam,) * n)
                want = np.linalg.cholesky(_malmquist_gram(space, sigma))
                with monkeypatch.context() as m:
                    m.setattr("discinterp.spaces._stein_blocks", refuse)
                    L = _malmquist_cholesky(space, sigma)
                assert np.max(np.abs(L - want)) <= 1e-10 * np.max(np.abs(want)), (n, lam)
                assert bounds._flattening_bound(bounds._one_point_stack(lam, L)) == pytest.approx(
                    bounds._flattening_bound(extremal._malmquist_factor(sigma.points, L)),
                    rel=1e-12, abs=0.0), (n, lam)

    @pytest.mark.parametrize("space", FRAME_SPACES, ids=lambda space: space.label())
    def test_one_point_is_the_evaluation_norm(self, space):
        # at n = 1 the value is s^-e sqrt(kappa_0), the rule of
        # eval_functional_norm, to rounding
        for r in (0.0, 0.3, 0.5, 0.9, 0.99, 0.999, 0.9999):
            for lam in (complex(r), r * np.exp(2.1j)):
                got = interp_constant(space, SigmaSet((lam,)), budget=2)
                want = eval_functional_norm(space, abs(lam))
                assert got == pytest.approx(want, rel=1e-15, abs=0.0), lam

    @pytest.mark.parametrize("space", [bergman_radial(2, 1), seq_weighted(2, 1.5)],
                             ids=lambda space: space.label())
    @pytest.mark.parametrize("r", [0.99999, 1 - 1e-9])
    def test_finite_up_to_the_circle(self, monkeypatch, space, r):
        # the Stein stream raises Divergence here
        def refuse(*args):
            raise AssertionError("the frame walked the powers of T_B")

        monkeypatch.setattr("discinterp.spaces._stein_blocks", refuse)
        got = interp_constant(space, SigmaSet((r,) * 8), budget=2)
        assert 0.0 < got < math.inf
        # more conditions can only raise the constant
        assert got >= interp_constant(space, SigmaSet((r,)), budget=2)

    @pytest.mark.parametrize("space", [seq_weighted(2, 2), seq_weighted(2, 6), hardy(4)],
                             ids=lambda space: space.label())
    def test_no_frame_off_the_moebius_invariant_spaces(self, monkeypatch, space):
        # no closed-form L there: it is the stream's, and one repeated point
        # still climbs the Toeplitz stack, with no resolvent of T_B
        assert _mobius_exponent(space) is None
        if not space.is_hilbert:
            return
        calls = []
        factor = bounds._malmquist_factor

        def counted(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(bounds, "_malmquist_factor", counted)
        assert interp_constant(space, SigmaSet((0.5,) * 4), budget=2) > 0.0
        assert len(calls) == 0

    def test_resolvents_only_on_two_or_more_distinct_points(self, monkeypatch):
        calls = []
        factor = bounds._malmquist_factor

        def counted(points, L):
            calls.append(len(set(points)))
            return factor(points, L)

        monkeypatch.setattr(bounds, "_malmquist_factor", counted)
        sets = [SigmaSet((0.0,)), SigmaSet((0.5,) * 3), SigmaSet((0.9j,) * 6),
                SigmaSet((0.3, -0.5)), SigmaSet((0.5, 0.5, -0.2j)), SigmaSet((0.1, 0.2, 0.3, 0.4))]
        for space in (hardy(2), seq_weighted(2, 1.5), seq_weighted(2, 2), seq_weighted(2, 3),
                      bergman_radial(2, 1)):
            for sigma in sets:
                assert interp_constant(space, sigma, budget=2) > 0.0
        assert calls == [2, 2, 4] * 5

    def test_stack_past_the_float_range_raises(self):
        # L^2_a(163.5) at (0.9999,)*2: the closed-form L is finite, but not
        # M = T(1 - conj(lam) z) L / s, and the constant is at least |M_ij| / sqrt(2)
        space, sigma = bergman_radial(2, 163.5), SigmaSet((0.9999,) * 2)
        assert np.all(np.isfinite(_malmquist_cholesky(space, sigma)))
        with pytest.raises(FloatingPointError, match="past the float range"):
            interp_constant(space, sigma, budget=2)


class TestLargeSteinGram:
    """Gram matrices S far from kappa_0 I, where the estimate climbs in the frame b = L y."""

    @pytest.mark.parametrize(
        "space",
        [hardy(2), seq_weighted(2, 1), seq_weighted(2, 1.5), seq_weighted(2, 6),
         bergman_radial(2, -0.5), bergman_radial(2, 1), bergman_radial(2, 8)],
        ids=lambda space: space.label(),
    )
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9, 0.999, 0.9999])
    def test_one_point_is_the_evaluation_norm(self, space, r):
        # at n = 1 the constant is the norm of f |-> f(lam); l^2_a(6) at
        # 0.999 has lambda_max(S) / kappa_0 near 4e33
        want = eval_functional_norm(space, r)
        for lam in (complex(r), r * np.exp(2.1j)):
            got = interp_constant(space, SigmaSet((lam,)), budget=2)
            assert got == pytest.approx(want, rel=1e-11, abs=0.0), lam

    def test_estimate_reaches_the_witness(self):
        space, sigma = seq_weighted(2, 6), SigmaSet((0.999,) * 2)
        assert interp_constant(space, sigma, budget=2) >= witness_lower_bound(space, 0.999, 2)

    def test_gram_without_cholesky_factor_raises(self):
        # lambda_max(S) / kappa_0 is far past 1 / eps: double precision
        # cannot resolve b^H S^-1 b, and no value is returned
        space, sigma = seq_weighted(2, 6), SigmaSet((0.999, 0.999, 0.3, 0.999, -0.5j))
        with pytest.raises(np.linalg.LinAlgError):
            interp_constant(space, sigma, budget=2)
        with pytest.raises(np.linalg.LinAlgError):
            min_norm_trace(space, sigma, np.ones(sigma.n))


class TestHighMultiplicity:
    """One repeated point up to n = 32, where jet coordinates lose all accuracy."""

    @pytest.mark.parametrize("space", [hardy(2), seq_weighted(2, 1.5)])
    @pytest.mark.parametrize("r", [0.0, 0.5, 0.9])
    def test_witness_estimate_operator_norm_and_growth(self, space, r):
        previous = 0.0
        for n in (2, 4, 8, 12, 16, 24, 32):
            sigma = SigmaSet((complex(r),) * n)
            witness = witness_lower_bound(space, complex(r), n)
            est = interp_constant(space, sigma, budget=4)
            top = projection_operator_norm(space, sigma)
            assert witness <= est * (1 + 1e-9), (n, witness, est)
            assert est <= top * (1 + 1e-9), (n, est, top)
            # more conditions can only raise the constant
            assert est >= previous, (n, previous, est)
            previous = est


class TestSweep:
    def test_single_cell(self):
        res = bound_sweep(hardy(2), [1], [0.0], estimate_cap=1, budget=2)
        row = res.rows[0]
        assert row.estimate == pytest.approx(1.0, abs=1e-8)
        assert row.witness == pytest.approx(1.0, abs=1e-8)
        assert res.slope_witness is None

    def test_row_order_and_columns(self):
        res = bound_sweep(hardy(2), [2, 4], [0.0, 0.5])
        key = [(row.n, row.r) for row in res.rows]
        assert key == [(2, 0.0), (2, 0.5), (4, 0.0), (4, 0.5)]

    @pytest.mark.parametrize("space, m", [(hardy(2), 1), (seq_weighted(2, 1.5), 2)])
    def test_rows_extend_theorem_bounds(self, space, m):
        names = [f.name for f in fields(BoundReport)]
        assert [f.name for f in fields(SweepRow)] == names + ["witness", "estimate"]
        res = bound_sweep(space, [1, 3, 8], [0.0, 0.5, 0.9], budget=2, estimate_cap=3)
        for row in res.rows:
            report = theorem_bounds(space, row.n, row.r)
            assert {name: getattr(row, name) for name in names} == asdict(report)
            assert row.x == row.n / (1 - row.r)
            assert row.witness == witness_lower_bound(space, complex(row.r), row.n)
            # the unturned witness (r = 0) is the Fejer kernel power, bitwise
            base = series_power(fejer_kernel(row.n), m)
            assert np.array_equal(bounds._witness_at(space, 0.0, row.n)[0], base.coeffs)

    def test_one_jet_norm_per_distinct_jet(self, monkeypatch):
        # every rotation of the jet is a unitary similarity of the unrotated
        # jet's Toeplitz matrix: one real jet norm per n, whatever the r
        calls = []

        def counting(coeffs):
            calls.append(coeffs.size)
            return extremal._jet_norm(coeffs)

        monkeypatch.setattr(bounds, "_jet_norm", counting)
        res = bound_sweep(seq_weighted(2, 1.5), (4, 8), (0, 0.5, 0.9))
        assert calls == [4, 8]
        monkeypatch.undo()
        for row in res.rows:
            assert row.witness == witness_lower_bound(seq_weighted(2, 1.5), complex(row.r), row.n)

    def test_diverging_witness_leaves_its_cell_empty(self):
        # at r = 1 - 1e-7 the Stein Gram of the l^2_a(2) witness needs more than
        # 2^21 terms; that cell has no witness and the slope is fitted without it
        space = seq_weighted(2, 2)
        with pytest.raises(Divergence):
            witness_lower_bound(space, 0.9999999, 2)
        res = bound_sweep(space, [2, 8], [0.5, 0.9999999])
        assert [row.witness is None for row in res.rows] == [False, True, False, True]
        for row in res.rows[::2]:
            assert row.witness == witness_lower_bound(space, row.r, row.n)
        want = bound_sweep(space, [2, 8], [0.5]).slope_witness
        assert res.slope_witness == want is not None

    def test_rejects_non_integral_n(self):
        for n in (2.5, 2.0, 0, -1):
            with pytest.raises(ValueError):
                bound_sweep(hardy(2), [n], [0.5])
        res = bound_sweep(hardy(2), [np.int64(2)], [0.5])
        assert res.rows[0].n == 2 and type(res.rows[0].n) is int

    def test_slope_near_half_for_hardy2(self):
        res = bound_sweep(hardy(2), [4, 8, 16, 32], [0.5])
        assert res.slope_witness == pytest.approx(0.5, abs=0.15)

    def test_estimate_slope_near_half_for_hardy2(self):
        res = bound_sweep(hardy(2), [8, 16, 32], [0.9], budget=4, estimate_cap=32)
        assert res.slope_estimate == pytest.approx(0.5, abs=0.05)
