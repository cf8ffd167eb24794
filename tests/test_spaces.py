import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.special import betaln, gammaln, logsumexp, roots_jacobi

from discinterp import (
    CoeffSeries,
    Divergence,
    NotHilbert,
    SigmaSet,
    UnsupportedSpace,
    bergman_radial,
    dirichlet_kernel,
    eval_functional_norm,
    eval_series,
    gram_matrix,
    hardy,
    jet_values,
    kernel_diagonal,
    malmquist_basis,
    min_norm_trace,
    norm,
    power_inequality_check,
    project,
    seq_weighted,
)

from discinterp.spaces import (
    _BERGMAN_BLOCK,
    _BERGMAN_MIN_ANGLES,
    _BERGMAN_MIN_RADII,
    _drop_negligible_tail,
    _hardy_norm,
    _malmquist_cholesky,
    _malmquist_gram,
    _malmquist_series,
    _next_pow2,
    _polished_max,
    _radial_rule,
    _solve_lower,
)
from discinterp.series import _basis_jets

from conftest import oracles, random_poly, random_sigma


class TestNorms:
    def test_dirichlet_h2(self):
        assert norm(hardy(2), dirichlet_kernel(4)) == pytest.approx(2.0, abs=1e-12)

    def test_zero_series_all_spaces(self):
        zero = CoeffSeries([0.0, 0.0])
        for space in (hardy(2), hardy(np.inf), seq_weighted(2, 1.5), bergman_radial(2, 0.5)):
            assert norm(space, zero) == 0.0

    def test_seq_alpha_one_is_hardy_two(self, rng):
        f = random_poly(rng, 17)
        assert norm(seq_weighted(2, 1.0), f) == pytest.approx(
            norm(hardy(2), f), abs=1e-12
        )

    def test_hardy4_frozen_value(self):
        # ||1+z||_4^4 = sum |coef((1+z)^2)|^2 = 1 + 4 + 1 = 6
        assert norm(hardy(4), CoeffSeries([1.0, 1.0])) == pytest.approx(
            6.0**0.25, rel=1e-12
        )

    def test_hardy_inf_is_max_modulus(self):
        # |1 + 0.5 z| peaks at z = 1
        assert norm(hardy(np.inf), CoeffSeries([1.0, 0.5])) == pytest.approx(1.5, rel=1e-10)

    def test_bergman_matches_coefficient_formula(self, rng):
        for beta in (-0.5, 0.0, 1.3):
            f = random_poly(rng, 11)
            ks = np.arange(len(f))
            oracle = np.sqrt(
                np.sum(np.abs(f.coeffs) ** 2 * np.pi * np.exp(betaln(ks + 1, beta + 1)))
            )
            assert norm(bergman_radial(2, beta), f) == pytest.approx(oracle, rel=1e-10)

    def test_bergman_p1_unit_disc_area(self):
        # integral of |1| over the disc is pi
        assert norm(bergman_radial(1, 0.0), CoeffSeries([1.0])) == pytest.approx(
            np.pi, rel=1e-10
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weight(self, bad):
        with pytest.raises(UnsupportedSpace, match="finite alpha"):
            seq_weighted(2, bad)
        with pytest.raises(UnsupportedSpace, match="finite beta"):
            bergman_radial(2, bad)

    HOMOGENEITY_SPACES = (
        hardy(1), hardy(1.5), hardy(2), hardy(3), hardy(4), hardy(np.inf),
        seq_weighted(3, 1.5), seq_weighted(np.inf, 1.5),
        bergman_radial(1.5, 0.0), bergman_radial(2, 1.0),
        bergman_radial(3, 1.0), bergman_radial(4, 1.0),
    )

    @pytest.mark.parametrize("space", HOMOGENEITY_SPACES, ids=lambda s: s.label())
    def test_homogeneous(self, space):
        # powers of two scale exactly; squares and p-th powers of 1e-160 f
        # would underflow and those of 1e160 f overflow without the rescaling
        coeffs = np.array([0.3, 1.0, 0.5j, 0.2])
        value = norm(space, CoeffSeries(coeffs))
        for k in (-600, -1, 1, 600):
            assert norm(space, CoeffSeries(np.ldexp(1.0, k) * coeffs)) == np.ldexp(value, k)
        for c in (1e-160, 1e160):
            got = norm(space, CoeffSeries(c * coeffs))
            assert got == pytest.approx(c * value, rel=1e-15, abs=0.0)
        assert norm(space, CoeffSeries(np.zeros(4))) == 0.0

    def test_unsupported_bergman_sup(self):
        with pytest.raises(UnsupportedSpace):
            norm(bergman_radial(np.inf, 0.0), CoeffSeries([1.0]))



def _model_interpolant(n: int, r: float) -> CoeffSeries:
    """Tf on a seeded set shaped like a benchmark model slot.

    n nodes of modulus at most r, the first at r and doubled, and f a
    random polynomial of degree 16; Tf comes at the basis degree.
    """
    rng = np.random.default_rng([n, int(100 * r)])
    moduli = r * np.sqrt(rng.uniform(size=n - 1))
    moduli[0] = r
    points = moduli * np.exp(2j * np.pi * rng.uniform(size=n - 1))
    sigma = SigmaSet((*points, points[0]))
    f = CoeffSeries(rng.standard_normal(17) + 1j * rng.standard_normal(17))
    return project(malmquist_basis(sigma), f)


def _bergman_oversampled(f, p, beta, k_rad=3000, m_ang=16384):
    """L^p_a(beta) norm from a k_rad-point radial rule and m_ang angles."""
    x, w = roots_jacobi(k_rad, beta, 0.0)
    radii = np.sqrt((x + 1.0) / 2.0)
    ks = np.arange(len(f))
    angular = np.empty(k_rad)
    for i in range(0, k_rad, 64):
        rows = radii[i : i + 64, None] ** ks[None, :]
        vals = np.abs(np.fft.fft(f.coeffs[None, :] * rows, n=m_ang, axis=1))
        angular[i : i + 64] = np.mean(vals**p, axis=1) * 2.0 * np.pi
    return float((2.0 ** (-beta - 2.0) * np.dot(w, angular)) ** (1.0 / p))


class TestNegligibleTail:
    SPACES = (
        hardy(1), hardy(3), hardy(np.inf),
        bergman_radial(1.5, 1.0), bergman_radial(3, 1.0), bergman_radial(4, 0.0),
    )

    @pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
    def test_zero_padding_is_bitwise_invisible(self, space, rng):
        for f in (random_poly(rng, 30), _model_interpolant(3, 0.5)):
            padded = CoeffSeries(f.padded(4 * len(f)))
            assert norm(space, padded) == norm(space, f)

    def test_dropped_tail_keeps_hardy_norms(self):
        # Tf padded to degree 2048; past degree 823 its coefficients carry
        # under 2^-53 of max_k |c_k| in l1 mass
        tf = CoeffSeries(_model_interpolant(9, 0.95).padded(2049))
        for p in (1.0, 3.0, np.inf):
            kept = _drop_negligible_tail(hardy(p), tf)
            assert len(kept) < len(tf) // 2
            want = _hardy_norm(p, tf)
            assert norm(hardy(p), tf) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_dense_series_is_kept(self, rng):
        f = random_poly(rng, 64)
        for space in self.SPACES:
            assert _drop_negligible_tail(space, f) is f

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficients_are_kept(self, bad):
        f = CoeffSeries([1.0, bad, 0.0, 0.0])
        for space in self.SPACES:
            assert _drop_negligible_tail(space, f) is f


class TestCirclePolish:
    STEP = 2.0 * np.pi / 4096  # coarse grid step of _circle_max at low degree

    def test_off_grid_peak(self):
        phi = (1000 + 0.5) * self.STEP
        f = CoeffSeries([1.0, np.exp(-1j * phi)])
        assert norm(hardy(np.inf), f) == pytest.approx(2.0, abs=1e-13)

    def test_tallest_of_several_off_grid_peaks(self):
        # sum_j h_j ((1 + e^{-i phi_j} z) / 2)^N: bumps of height h_j at phi_j
        # whose overlap, cos(pi/3)^N, is far below rounding
        n = 200
        ks = np.arange(n + 1)
        binom = np.exp(gammaln(n + 1) - gammaln(ks + 1) - gammaln(n - ks + 1) - n * np.log(2.0))
        heights = (1.0, 1.7, 1.3)
        coeffs = np.zeros(n + 1, dtype=complex)
        for j, height in enumerate(heights):
            phi = (j * 1365 + 0.5) * self.STEP
            coeffs += height * binom * np.exp(-1j * ks * phi)
        f = CoeffSeries(coeffs)
        grid_max = float(np.max(np.abs(np.fft.fft(f.padded(4096)))))
        assert grid_max < 1.7 - 1e-6
        assert norm(hardy(np.inf), f) == pytest.approx(1.7, abs=1e-13)

    GRID = 2.0 * np.pi * np.arange(4096) / 4096

    def test_flat_quartic_top_off_grid(self):
        # g = 1 - K (1 - cos x)^2 is 1 - K x^4 / 4 near its top, so g'' = 0
        # there and Newton converges only linearly
        K, phi = 1e4, (1000 + 0.37) * self.STEP

        def g(t):
            x = t - phi
            u = 1.0 - np.cos(x)
            return 1.0 - K * u * u, -2.0 * K * u * np.sin(x), -2.0 * K * (np.sin(x) ** 2 + u * np.cos(x))

        vals = g(self.GRID)[0]
        assert vals.max() < 1.0 - 1e-10
        got = _polished_max(vals, self.GRID, g, 8)
        assert got >= vals.max()
        assert got == pytest.approx(1.0, abs=1e-13)

    def test_convex_start(self):
        # a Gaussian bump a third of a grid step wide: at the grid peak,
        # 0.45 steps off its centre, g'' > 0 and the polish bisects first
        w, phi = self.STEP / 3.0, (2000 + 0.45) * self.STEP

        def g(t):
            x = (t - phi) / w
            val = np.exp(-x * x)
            return val, -2.0 * x / w * val, (4.0 * x * x - 2.0) / w**2 * val

        vals = g(self.GRID)[0]
        peak = int(np.argmax(vals))
        assert g(self.GRID[peak : peak + 1])[2][0] > 0.0
        got = _polished_max(vals, self.GRID, g, 8)
        assert got >= vals.max()
        assert got == pytest.approx(1.0, abs=1e-13)

    def test_never_below_grid_max(self):
        # derivatives that point nowhere and values below the grid: the grid
        # maximum stands
        vals = 1.0 + np.cos(self.GRID - 0.1)

        def g(t):
            return np.zeros_like(t), np.ones_like(t), np.ones_like(t)

        assert _polished_max(vals, self.GRID, g, 8) == vals.max()

    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [np.inf, 1.0], [1.0, np.inf]])
    def test_non_finite_coefficients_give_nan(self, coeffs):
        with np.errstate(invalid="ignore"):
            assert np.isnan(norm(hardy(np.inf), CoeffSeries(coeffs)))

    @settings(max_examples=60, deadline=None)
    @given(
        deg=st.integers(1, 2048),
        seed=st.integers(0, 2**32 - 1),
        decay=st.floats(0.0, 0.05),
    )
    def test_between_grid_max_and_coefficient_sum(self, deg, seed, decay):
        rng = np.random.default_rng(seed)
        coeffs = (rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)) * np.exp(
            -decay * np.arange(deg + 1)
        )
        got = norm(hardy(np.inf), CoeffSeries(coeffs))
        grid_max = float(np.max(np.abs(np.fft.fft(coeffs, 8192))))
        # rounding slack only: both sides are sums of deg + 1 terms
        assert grid_max <= got * (1.0 + 1e-13)
        assert got <= float(np.sum(np.abs(coeffs))) * (1.0 + 1e-13)


class TestBlockedBergman:
    @pytest.mark.parametrize("n", [40, 250, 384])
    def test_monomial_closed_form(self, n):
        # n = 40, 250, 384 give 128, 133 and 200 radii against tiles of 32:
        # an exact multiple of the tile, then two with a short last tile
        assert max(_BERGMAN_MIN_RADII, n // 2 + 8) in (4 * _BERGMAN_BLOCK, 133, 200)
        f = CoeffSeries(np.eye(n + 1)[n])
        for p in (1.5, 3.0, 4.0):
            for beta in (0.0, 1.0):
                want = np.exp((np.log(np.pi) + betaln(n * p / 2 + 1, beta + 1)) / p)
                assert norm(bergman_radial(p, beta), f) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_even_p_monomial_closed_form(self, p):
        # even p: the exact p = 2 norm of f^(p/2), against
        # (pi B(np/2 + 1, beta + 1))^(1/p) on every 50th degree up to 1000
        for beta in (-0.5, 0.0, 1.0):
            for n in [1, 2, 3, *range(0, 1001, 50)]:
                f = CoeffSeries(np.eye(n + 1)[n])
                want = (math.pi * _beta_exact(n * int(p) // 2, beta)) ** (1.0 / p)
                got = norm(bergman_radial(p, beta), f)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (beta, n)

    def test_peak_memory_degree_2048(self, rng):
        f = random_poly(rng, 2048)
        tracemalloc.start()
        try:
            norm(bergman_radial(3, 1.0), f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20

    def test_peak_memory_of_the_tiles_degree_2048(self, rng):
        # four tiles of 32 circles at 8192 angles take 12 MB
        f = random_poly(rng, 2048)
        tracemalloc.start()
        try:
            norm(bergman_radial(3, 1.0), f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
    def test_low_degree_monomials(self, p, beta):
        # |z^n|^p = u^(np/2) is not smooth at u = 0; the floor of 128 radii
        # holds the worst case, z at p = 1.5, beta = 1, to 8.1e-9
        for n in (1, 2, 3):
            f = CoeffSeries(np.eye(n + 1)[n])
            want = np.exp((np.log(np.pi) + betaln(n * p / 2 + 1, beta + 1)) / p)
            assert norm(bergman_radial(p, beta), f) == pytest.approx(want, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("n, r", [(3, 0.5), (5, 0.9), (9, 0.95)])
    def test_interpolant_l3_against_oversampled_rule(self, n, r):
        # Tf of degree 128 to 2048, its tail dropped, against 3000 radii and
        # 16384 angles on every circle
        tf = _model_interpolant(n, r)
        want = _bergman_oversampled(tf, 3.0, 1.0)
        assert norm(bergman_radial(3, 1.0), tf) == pytest.approx(want, rel=1e-11, abs=0.0)

    @staticmethod
    def _parity_cases():
        rng = np.random.default_rng(1717)
        decay = np.exp(-0.02 * np.arange(901))
        return [
            CoeffSeries(np.eye(41)[40]),
            CoeffSeries(np.eye(251)[250]),
            random_poly(rng, 250),
            random_poly(rng, 700),
            CoeffSeries(random_poly(rng, 900).coeffs * decay),
            CoeffSeries(random_poly(rng, 600).coeffs * decay[:601] ** 3),
            _model_interpolant(3, 0.5),
            _model_interpolant(6, 0.9),
            _model_interpolant(9, 0.95),
        ]

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0])
    def test_block_width_matches_full_rows(self, p, beta):
        # the same grid with every circle's row at full degree, as before the
        # block width: monomials, dense and decaying polynomials and Tf
        space = bergman_radial(p, beta)
        k_rads = set()
        for f in self._parity_cases():
            deg = _drop_negligible_tail(space, f).degree
            k_rad = max(_BERGMAN_MIN_RADII, deg // 2 + 8)
            k_rads.add(k_rad)
            m_ang = _next_pow2(max(_BERGMAN_MIN_ANGLES, 2 * deg + 2))
            want = _bergman_oversampled(
                _drop_negligible_tail(space, f), p, beta, k_rad=k_rad, m_ang=m_ang
            )
            got = norm(space, f)
            assert abs(got - want) <= 2.0**-51 * want, (deg, got, want)
        # a short last block, and a degree large enough for several blocks
        assert any(k % _BERGMAN_BLOCK for k in k_rads) and max(k_rads) > 4 * _BERGMAN_BLOCK

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_values_do_not_depend_on_the_tile(self, p, monkeypatch):
        # a tile's width is certified at its own largest radius, so other
        # tiles cut other columns, each by at most 2^-53 of its circle's mean
        space = bergman_radial(p, 1.0)
        values = {}
        for tile in (1, 7, 32, 64):
            monkeypatch.setattr("discinterp.spaces._BERGMAN_BLOCK", tile)
            values[tile] = [norm(space, f) for f in self._parity_cases()]
        for tile, got in values.items():
            for value, want in zip(got, values[32]):
                assert abs(value - want) <= 2.0**-52 * want, (tile, value, want)

    @pytest.mark.parametrize("beta", [-0.9, -0.5, 0.0, 1.0, 3.0])
    @pytest.mark.parametrize("k_rad", [24, 128, 133, 408, 2000])
    def test_radii_ascend(self, beta, k_rad):
        # a block's width is certified at its last radius, so that one must
        # be its largest
        radii = _radial_rule(k_rad, beta)[0]
        assert np.all(np.diff(radii) > 0.0)

    def test_cached_rule_is_read_only(self):
        radii, w = _radial_rule(40, 0.5)
        assert not radii.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            radii[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0
        assert _radial_rule(40, 0.5)[0] is radii


def eulerian(d: int) -> list[int]:
    """Coefficients of the Eulerian polynomial A_d, A_0 = 1."""
    row = [1]
    for n in range(1, d + 1):
        row = [(m + 1) * (row[m] if m < len(row) else 0) + (n - m) * (row[m - 1] if m else 0)
               for m in range(n)]
    return row


class TestEvalFunctional:
    def test_hardy2_origin(self):
        assert eval_functional_norm(hardy(2), 0.0) == 1.0

    def test_hardy2_frozen(self):
        assert eval_functional_norm(hardy(2), 0.8) == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_seq_dominates_hardy(self):
        for t in (0.0, 0.3, 0.9):
            for alpha in (1.0, 1.5, 2.0):
                assert (
                    eval_functional_norm(seq_weighted(2, alpha), t)
                    >= eval_functional_norm(hardy(2), t) - 1e-12
                )

    def test_divergence_at_boundary(self):
        with pytest.raises(Divergence):
            eval_functional_norm(hardy(2), 1.0)

    @pytest.mark.parametrize("space", [hardy(1), hardy(2), hardy(np.inf), seq_weighted(2, 1.5),
                                       seq_weighted(1, 3.0), seq_weighted(np.inf, 2.0),
                                       bergman_radial(2, 0.5)])
    def test_negative_points_read_as_their_modulus(self, space):
        # every rule is radial
        for t in (0.3, 0.9, 0.999):
            assert eval_functional_norm(space, -t) == eval_functional_norm(space, t)
        for t in (-1.0, 1.5, np.nan):
            with pytest.raises(Divergence):
                eval_functional_norm(space, t)

    def test_pointwise_bound_and_sharpness(self, rng):
        spaces = [hardy(1), hardy(2), hardy(4), seq_weighted(2, 1.5), bergman_radial(2, 0.0)]
        ts = np.linspace(0.0, 0.95, 12)
        for space in spaces:
            for _ in range(6):
                f = random_poly(rng, 10)
                nf = norm(space, f)
                for t in ts:
                    bound = eval_functional_norm(space, t) * nf
                    assert abs(eval_series(f, t)) <= bound * (1 + 1e-6) + 1e-12

    @pytest.mark.parametrize("t", [0.3, 0.8, 0.95, 0.9999])
    def test_seq_sup_norm_dual_weight(self, t):
        # the l^1 norm of the dual weight: sum_k (k+1)^(alpha-1) t^k
        assert eval_functional_norm(seq_weighted(np.inf, 1.0), t) == pytest.approx(
            1.0 / (1.0 - t), rel=1e-13, abs=0.0
        )
        assert eval_functional_norm(seq_weighted(np.inf, 2.0), t) == pytest.approx(
            1.0 / (1.0 - t) ** 2, rel=1e-13, abs=0.0
        )

    def test_seq_sup_norm_dual_weight_near_kmax(self):
        # at alpha = 1 the bracketed tail is exact, so no pass runs to
        # 2^21 terms here, where the tail is most of the sum
        t = 1.0 - 1.4e-5
        assert eval_functional_norm(seq_weighted(np.inf, 1.0), t) == pytest.approx(
            1.0 / (1.0 - t), rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("p", [1.5, 3.0, np.inf])
    def test_seq_dual_weight_peak_out_of_reach(self, p):
        # the peak sits near k = 2e9, past the 2^21 terms a pass may sum, and
        # near k = 1.8e16 at the last float below 1: Divergence before any pass
        for t in (1.0 - 1e-9, np.nextafter(1.0, 0.0)):
            with warnings.catch_warnings(), pytest.raises(Divergence):
                warnings.simplefilter("error")
                eval_functional_norm(seq_weighted(p, 3.0), t)

    def test_seq_dual_weight_sup_far_peak(self):
        # p = 1: the sup of (k+1)^2 t^k, at k + 1 = 2/(-log t), without summing
        t = 1.0 - 1e-9
        k1 = 2.0 / -np.log(t)
        want = np.exp(2.0 * np.log(k1) + (k1 - 1.0) * np.log(t))
        got = eval_functional_norm(seq_weighted(1.0, 3.0), t)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize(
        "p, alpha, t", [(1.01, 2.0, 0.99844), (1.01, 3.0, 0.9), (1.01, 3.0, 0.99)]
    )
    def test_seq_dual_weight_large_q(self, p, alpha, t):
        # q = p/(p-1) = 101: (k+1)^(q(alpha-1)) alone leaves the double
        # range well before the sum converges; at t = 0.99 so does the q-th
        # power of the peak weight (about 5.4e3), though the norm is 5.6e3
        q = p / (p - 1.0)
        ks = np.arange(400000, dtype=float)
        log_terms = q * ((alpha - 1.0) * np.log1p(ks) + ks * np.log(t))
        want = np.exp(logsumexp(log_terms) / q)
        got = eval_functional_norm(seq_weighted(p, alpha), t)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "p, alphas, ts",
        [(2.0, (1.0, 1.5, 2.0, 2.5, 3.0), (0.3, 0.9, 0.999, 1.0 - 2.0**-13, 1.0 - 2.0**-16)),
         (np.inf, (1.0, 2.0, 3.0), (0.3, 0.9, 0.999, 1.0 - 2.0**-13)),
         (1.5, (1.0, 2.0, 3.0, 4.0, 6.0), (0.3, 0.9, 0.999, 1.0 - 2.0**-13, 1.0 - 2.0**-16))],
    )
    def test_seq_dual_weight_eulerian(self, p, alphas, ts):
        # the q-th power of the norm is sum_k (k+1)^d x^k = A_d(x)/(1-x)^(d+1),
        # d = q(alpha-1) and x = t^q, A_d the Eulerian polynomial, exactly; the
        # rounding stays small at q(alpha-1) = 15, where the terms' exponents are large
        q = {2.0: 2, np.inf: 1, 1.5: 3}[p]
        for alpha in alphas:
            d = round(q * (alpha - 1.0))
            coeffs = eulerian(d)
            for t in ts:
                x = Fraction(t) ** q
                want = sum(c * x**m for m, c in enumerate(coeffs)) / (1 - x) ** (d + 1)
                got = eval_functional_norm(seq_weighted(p, alpha), t)
                assert got == pytest.approx(float(want) ** (1.0 / q), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 2.5])
    def test_bergman_pointwise_bound_and_sharpness(self, rng, p, beta):
        space = bergman_radial(p, beta)
        for _ in range(4):
            f = random_poly(rng, 12)
            nf = norm(space, f)
            for t in (0.0, 0.4, 0.8, 0.95):
                assert abs(eval_series(f, t)) <= eval_functional_norm(space, t) * nf * (1 + 1e-12)
        # (1 - t z)^(-g), g = 2(beta+2)/p, attains it; cut at degree 599,
        # where its coefficients are below 1e-70 of the first
        t, g, ks = 0.7, 2.0 * (beta + 2.0) / p, np.arange(600)
        f = CoeffSeries(np.cumprod(np.append(1.0, (g + ks[:-1]) / (ks[:-1] + 1.0))) * t**ks)
        ratio = abs(eval_series(f, t)) / norm(space, f)
        assert ratio == pytest.approx(eval_functional_norm(space, t), rel=1e-12, abs=0.0)

    def test_past_the_float_range(self):
        # the L^2_a(300) norm at 0.999 is past it, the L^3_a(300) one is not;
        # at the peak of the dual weight at 0.9999, k near 5.9e5, (k+1)^59 of
        # l^2_a(60) is past it and raises, with no overflow warning first; (k+1)^39
        # of l^2_a(40) is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert eval_functional_norm(bergman_radial(2, 300), 0.999) == math.inf
            assert 0.0 < eval_functional_norm(bergman_radial(3, 300), 0.999) < math.inf
            with pytest.raises(Divergence, match="float range"):
                eval_functional_norm(seq_weighted(2, 60), 0.9999)
            assert 0.0 < eval_functional_norm(seq_weighted(2, 40), 0.9999) < math.inf

    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 2.5])
    def test_bergman2_kernel_diagonal_sum(self, beta):
        # sqrt(sum_k kappa_k t^(2k)), summed exactly, against the closed form
        space = bergman_radial(2, beta)
        ks = np.arange(8000)
        kap = kernel_diagonal(space, ks)
        for t in np.linspace(0.0, 0.99, 12):
            want = math.sqrt(math.fsum(kap * t ** (2 * ks)))
            assert eval_functional_norm(space, t) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_seq2_closed_form(self):
        # at alpha = 3/2 the squared dual weights are (k+1) t^(2k): 1/(1-t^2)^2
        for t in (0.0, 0.3, 0.9, 0.99, 0.999, 0.9999):
            want = 1.0 / ((1.0 - t) * (1.0 + t))
            got = eval_functional_norm(seq_weighted(2, 1.5), t)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_sharpness_for_kernel_series(self):
        for space in (hardy(2), seq_weighted(2, 1.5)):
            t = 0.7
            ks = np.arange(400)
            kap = kernel_diagonal(space, ks)
            f = CoeffSeries(kap * t**ks)
            lhs = abs(eval_series(f, t))
            rhs = eval_functional_norm(space, t) * norm(space, f)
            assert lhs == pytest.approx(rhs, rel=1e-8)


class TestGram:
    def test_single_origin(self):
        G = gram_matrix(hardy(2), SigmaSet((0.0,)))
        assert np.allclose(G, [[1.0]])

    def test_two_points_frozen(self):
        G = gram_matrix(hardy(2), SigmaSet((0.0, 0.5)))
        assert np.allclose(G, [[1.0, 1.0], [1.0, 4.0 / 3.0]], atol=1e-12)

    def test_double_origin_identity(self):
        G = gram_matrix(hardy(2), SigmaSet((0.0, 0.0)))
        assert np.allclose(G, np.eye(2), atol=1e-12)

    def test_distinct_matches_szego_kernel(self, rng):
        sigma = random_sigma(rng, n_max=5, r_max=0.8, distinct=True)
        G = gram_matrix(hardy(2), sigma)
        pts = np.array(sigma.points)
        expect = 1.0 / (1.0 - np.outer(pts, pts.conj()))
        assert np.max(np.abs(G - expect)) < 1e-10

    def test_positive_definite_random(self, rng):
        for _ in range(10):
            sigma = random_sigma(rng, n_max=8, r_max=0.9)
            G = gram_matrix(hardy(2), sigma)
            assert np.linalg.eigvalsh(G)[0] > 0

    def test_not_hilbert(self):
        with pytest.raises(NotHilbert):
            gram_matrix(hardy(4), SigmaSet((0.0,)))

    def test_near_collision_warns(self):
        from discinterp import IllConditionedWarning

        with pytest.warns(IllConditionedWarning):
            gram_matrix(hardy(2), SigmaSet((0.5, 0.5 + 1e-9)))


class TestMinNorm:
    def test_constant_at_origin(self):
        res = min_norm_trace(hardy(2), SigmaSet((0.0,)), [1.0])
        assert res.norm == pytest.approx(1.0)
        assert np.allclose(res.interpolant.coeffs, [1.0])

    def test_zero_trace(self, rng):
        sigma = random_sigma(rng, n_max=4, r_max=0.7)
        res = min_norm_trace(hardy(2), sigma, np.zeros(sigma.n))
        assert res.norm == 0.0

    def test_frozen_kernel_value(self):
        res = min_norm_trace(hardy(2), SigmaSet((0.8,)), [1.0])
        assert res.norm == pytest.approx(0.6, abs=1e-12)
        assert eval_series(res.interpolant, 0.8) == pytest.approx(1.0, abs=1e-10)

    def test_jet_reproduction(self, rng):
        for space in (hardy(2), seq_weighted(2, 1.5), bergman_radial(2, 0.0)):
            sigma = SigmaSet((0.4, 0.4, -0.3 + 0.2j))
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            res = min_norm_trace(space, sigma, a)
            jets = jet_values(res.interpolant, sigma)
            assert np.max(np.abs(jets - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_target_raises(self, bad):
        with pytest.raises(ValueError, match="infs or NaNs"):
            min_norm_trace(hardy(2), SigmaSet((0.5, 0.2j)), [bad, 1.0])

    @pytest.mark.parametrize(
        "points, tol",
        [
            ((0.9,) * 16, 1e-11),
            ((0.9,) * 24, 1e-9),
            # seven nodes on |z| = 0.2, their gaps shrinking from 0.16 to 0.005
            (tuple(0.2 * np.exp(1j * np.cumsum(np.r_[0.0, np.linspace(0.8, 0.025, 6)]))), 1e-11),
            ((0.5, 0.5, 0.5, -0.4j, -0.4j, 0.7), 1e-13),
        ],
    )
    def test_h2_kernel_jet_closed_form(self, points, tol):
        # the least H^2 norm with the jet of k_w(z) = 1 / (1 - conj(w) z) is that
        # of the projection of k_w onto K_B, sqrt((1 - |B(w)|^2) / (1 - |w|^2))
        w = 0.5 * np.exp(-0.3j)
        sigma = SigmaSet(points)
        a = [
            math.factorial(d) * np.conj(w) ** d / (1.0 - np.conj(w) * lam) ** (d + 1)
            for lam, d in sigma.functionals()
        ]
        B = np.prod([(lam - w) / (1.0 - np.conj(lam) * w) for lam in points])
        want = math.sqrt((1.0 - abs(B) ** 2) / (1.0 - abs(w) ** 2))
        got = min_norm_trace(hardy(2), sigma, a).norm
        assert got == pytest.approx(want, rel=tol, abs=0.0)

    def test_optimality_against_vanishing_perturbations(self, rng):
        sigma = random_sigma(rng, n_max=4, r_max=0.7)
        a = rng.standard_normal(sigma.n) + 1j * rng.standard_normal(sigma.n)
        res = min_norm_trace(hardy(2), sigma, a)
        B = oracles.blaschke_taylor(sigma.points, 601)
        for _ in range(5):
            h = CoeffSeries(np.convolve(B, random_poly(rng, 6, scale=0.3).coeffs))
            pad = max(len(res.interpolant), len(h))
            combined = CoeffSeries(res.interpolant.padded(pad) + h.padded(pad))
            assert norm(hardy(2), combined) >= res.norm - 1e-9


class TestSubstitutionSolves:
    """min_norm_trace's forward substitutions against scipy's triangular solver."""

    @pytest.mark.parametrize("confluent", [False, True])
    def test_matches_solve_triangular(self, rng, confluent):
        for t in range(24):
            sigma = random_sigma(rng, n_max=8, r_max=(0.5, 0.9, 0.99)[t % 3])
            if confluent:
                sigma = SigmaSet(sigma.points + sigma.points[: 1 + t % 3])
            space = (hardy(2), seq_weighted(2, 1.5), bergman_radial(2, -0.5))[t % 3]
            a = rng.standard_normal(sigma.n) + 1j * rng.standard_normal(sigma.n)
            C = _basis_jets(sigma)
            L = _malmquist_cholesky(space, sigma)
            b = _solve_lower(C, a)
            y = _solve_lower(L, b)
            mu = _solve_lower(L.conj().T[::-1, ::-1], y[::-1])[::-1]
            for got, want in (
                (b, solve_triangular(C, a, lower=True)),
                (y, solve_triangular(L, b, lower=True)),
                (mu, solve_triangular(L, y, lower=True, trans="C")),
            ):
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert min_norm_trace(space, sigma, a).norm == np.linalg.norm(y)

    def test_failures_match_solve_triangular(self):
        singular = np.tril(np.ones((3, 3)))
        singular[1, 1] = 0.0
        for T, error in ((singular, np.linalg.LinAlgError), (np.diag([1.0, np.inf]), ValueError)):
            b = np.ones(T.shape[0])
            with pytest.raises(error) as want:
                solve_triangular(T, b, lower=True)
            with pytest.raises(error) as got:
                _solve_lower(T, b)
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_lower(np.eye(2), np.array([1.0, np.nan]))

    @pytest.mark.filterwarnings("error")
    def test_basis_jets_out_of_range_are_named(self):
        # at 100 repeated nodes near the circle the jets of the basis overflow
        with pytest.raises(np.linalg.LinAlgError, match=r"basis jets overflow .* diagonal \d+"):
            min_norm_trace(hardy(2), SigmaSet((0.999,) * 100), np.ones(100))
        # at 150 nodes on a circle of radius 0.001 the values of the basis underflow
        sigma = SigmaSet(tuple(0.5 + 0.001 * np.exp(2j * np.pi * np.arange(150) / 150)))
        with pytest.raises(np.linalg.LinAlgError, match=r"basis jets underflow .* diagonal \d+"):
            min_norm_trace(hardy(2), sigma, np.ones(150))


class TestSteinGramFloor:
    """S >= kappa_0 I: the Stein Gram always has a Cholesky factor in exact arithmetic."""

    def test_smallest_eigenvalue_is_at_least_kappa_0(self, rng):
        # kappa_k never decreases and sum_m v_m v_m^H = I, so
        # S = sum_m kappa_m v_m v_m^H >= kappa_0 I; checked where rounding
        # (about eps lambda_max) cannot hide it
        spaces = [hardy(2)] + [seq_weighted(2, a) for a in (1.0, 1.5, 3.0, 6.0)]
        spaces += [bergman_radial(2, b) for b in (-0.5, 0.0, 1.0, 8.0)]
        checked = 0
        for space in spaces:
            kappa_0 = float(kernel_diagonal(space, 0.0))
            for t in range(12):
                sigma = random_sigma(rng, n_max=6, r_max=(0.5, 0.9, 0.99)[t % 3])
                if t % 2 == 0:  # repeated nodes
                    sigma = SigmaSet(sigma.points + sigma.points[: 1 + t % 3])
                eig = np.linalg.eigvalsh(_malmquist_gram(space, sigma))
                if eig[-1] > 1e10 * kappa_0:
                    continue
                assert eig[0] >= kappa_0 * (1.0 - 1e-12), (space, sigma.points, eig[0])
                checked += 1
        assert checked >= 60

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_gram_raises(self, monkeypatch, bad):
        G = np.eye(3, dtype=complex) * 2.0
        G[2, 1] = bad
        monkeypatch.setattr("discinterp.spaces._malmquist_gram", lambda space, sigma: G)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _malmquist_cholesky(hardy(2), SigmaSet((0.1, 0.2, 0.3)))

    def test_failed_factor_names_the_stein_gram(self, monkeypatch):
        S = np.diag([1.0, 1e20, -1.0]).astype(complex)
        monkeypatch.setattr("discinterp.spaces._malmquist_gram", lambda space, sigma: S)
        with pytest.raises(np.linalg.LinAlgError, match=r"Stein Gram S .* = 1e\+20;"):
            _malmquist_cholesky(hardy(2), SigmaSet((0.1, 0.2, 0.3)))


class TestPowerInequality:
    def test_alpha_one_exact_equality(self, rng):
        f = random_poly(rng, 8)
        lhs, rhs = power_inequality_check(1.0, f)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_frozen_value(self):
        lhs, rhs = power_inequality_check(1.5, CoeffSeries([1.0, 1.0]))
        assert rhs == pytest.approx(4.0)
        assert lhs == pytest.approx(10.0 / 3.0, rel=1e-12)
        assert lhs <= rhs + 1e-9

    def test_zero_series(self):
        lhs, rhs = power_inequality_check(2.0, CoeffSeries([0.0]))
        assert lhs == 0.0 and rhs == 0.0

    def test_random_sweep(self, rng):
        for alpha in (1.0, 1.5, 2.0):
            for _ in range(25):
                f = random_poly(rng, int(rng.integers(0, 17)))
                lhs, rhs = power_inequality_check(alpha, f)
                assert lhs <= rhs + 1e-9

    def test_rejects_non_integer_power(self):
        with pytest.raises(ValueError):
            power_inequality_check(1.25, CoeffSeries([1.0]))


def _beta_exact(n: int, b: float) -> float:
    """B(n+1, b+1) as B(1, b+1) prod_{k<=n} k/(k+b+1), the logs summed exactly."""
    ks = np.arange(1, n + 1)
    return math.exp(math.fsum(np.log1p(-(b + 1.0) / (ks + b + 1.0)))) / (b + 1.0)


class TestKernelDiagonalEncoding:
    """Every p = 2 quantity follows from kernel_diagonal, summed by one loop."""

    @pytest.mark.parametrize("beta", [1.0, -0.5])
    def test_bergman_interpolant_norm_is_min_norm(self, beta):
        space = bergman_radial(2, beta)
        res = min_norm_trace(space, SigmaSet((0.99,) * 3), [1.0, -0.5, 0.25])
        assert norm(space, res.interpolant) == pytest.approx(res.norm, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [384, 1000, 5000])
    def test_bergman_monomial_norm(self, n):
        # kernel_diagonal takes ln(Gamma(n+beta+2) / Gamma(n+1)) straight
        # from the Stirling series, a logarithm of size (beta+1) ln n, so
        # about 2e-15 of rounding reaches kappa_n and half of it the norm
        f = CoeffSeries(np.eye(n + 1)[n])
        for beta in (-0.5, 0.0, 1.0):
            want = math.sqrt(math.pi * _beta_exact(n, beta))
            assert norm(bergman_radial(2, beta), f) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("beta", [0, 1, 8])
    def test_bergman_kernel_diagonal_integer_beta(self, beta):
        # pi kappa_k = (k+beta+1)! / (k! beta!), an integer; k = 15, 16, 17
        # straddle the switch from math.lgamma to the Stirling series
        ks = [0, 1, 15, 16, 17, 100, 5000, 2**21]
        got = kernel_diagonal(bergman_radial(2, beta), np.array(ks)) * math.pi
        want = np.array([float((k + beta + 1) * math.comb(k + beta, beta)) for k in ks])
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("beta", [Fraction(-1, 2), Fraction(3, 2)])
    def test_bergman_kernel_diagonal_half_integer_beta(self, beta):
        # pi kappa_k = (beta+1) prod_{j=1..k} (j+beta+1)/j, exact rationals
        ks = np.arange(5001)
        want, ratio = [], beta + 1
        for k in ks.tolist():
            ratio = ratio if k == 0 else ratio * (k + beta + 1) / k
            want.append(float(ratio))
        got = kernel_diagonal(bergman_radial(2, float(beta)), ks) * math.pi
        assert np.max(np.abs(got / np.array(want) - 1.0)) <= 1e-13

    @pytest.mark.parametrize("lam", [0.99, -0.995])
    def test_h2_one_point_interpolant_tail(self, lam):
        # f = k_lam / k_lam(lam) = (1 - |lam|^2) sum_k conj(lam)^k z^k
        got = min_norm_trace(hardy(2), SigmaSet((lam,)), [1.0]).interpolant
        want = (1.0 - lam * lam) * np.conj(lam) ** np.arange(20000)
        assert np.linalg.norm(got.padded(20000) - want) <= 1e-12

    def test_gram_closed_forms(self):
        pts = np.array([0.6, -0.3 + 0.5j, 0.1j, -0.7 - 0.2j])
        x = 1.0 - np.outer(pts, pts.conj())
        sigma = SigmaSet(tuple(pts))
        G = gram_matrix(seq_weighted(2, 1.5), sigma)
        assert np.max(np.abs(G / x**-2.0 - 1.0)) <= 1e-13
        for beta in (-0.5, 0.0, 1.0):
            G = gram_matrix(bergman_radial(2, beta), sigma)
            want = (beta + 1.0) / (np.pi * x ** (beta + 2.0))
            assert np.max(np.abs(G / want - 1.0)) <= 1e-13

    def test_one_divergence_message(self):
        t = 1.0 - 1e-7
        calls = (
            lambda: gram_matrix(seq_weighted(2, 1.5), SigmaSet((t,))),
            lambda: min_norm_trace(hardy(2), SigmaSet((t,)), [1.0]),
            lambda: eval_functional_norm(seq_weighted(2, 1.5), t),
            lambda: eval_functional_norm(seq_weighted(3, 1.5), t),
            lambda: _malmquist_gram(seq_weighted(2, 1.5), SigmaSet((t,))),
            lambda: _malmquist_series((t,), np.ones(1)),
        )
        messages = set()
        for call in calls:
            with pytest.raises(Divergence) as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_h2_gram_holds_up_to_the_circle(self):
        # S = I needs no kernel series, so the Gram is 1 / (1 - t^2) where a
        # weighted space diverges
        t = 1.0 - 1e-7
        G = gram_matrix(hardy(2), SigmaSet((t,)))
        assert abs(G[0, 0] * (1.0 - t) * (1.0 + t) - 1.0) <= 1e-9
