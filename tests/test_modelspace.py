import math
import warnings

import numpy as np
import pytest

from decimal import Decimal, localcontext
from fractions import Fraction

from discinterp import (
    CoeffSeries,
    Divergence,
    NotHilbert,
    SigmaSet,
    TruncationError,
    bernstein_ratio,
    bergman_radial,
    eval_series,
    hardy,
    jet_values,
    kernel_diagonal,
    malmquist_basis,
    min_norm_trace,
    modelspace,
    norm,
    project,
    projection_operator_norm,
    seq_weighted,
    witness_lower_bound,
)

from discinterp.spaces import _malmquist_gram, _malmquist_series, _polished_max, _stein_blocks
from discinterp.series import _basis_jets, _basis_taylor, _compressed_shift, _falling

from conftest import oracles, random_poly, random_sigma


def _counted(monkeypatch, call):
    """call() with the columns it took from _stein_blocks and its _compressed_shift calls.

    Each is patched in the module that makes the call: spaces for the Gram,
    the series and the walk's own shift, modelspace for the basis, the
    Bernstein sum and the basis's cap check."""
    widths, shifts = [], []

    def recording(*args):
        for V, mass, P in _stein_blocks(*args):
            widths.append(V.shape[1])
            yield V, mass, P

    def counting(points):
        shifts.append(len(points))
        return _compressed_shift(points)

    with monkeypatch.context() as m:
        for module in ("spaces", "modelspace"):
            m.setattr(f"discinterp.{module}._stein_blocks", recording)
            m.setattr(f"discinterp.{module}._compressed_shift", counting)
        return call(), sum(widths), len(shifts)


def _taylor_rows(sigma: SigmaSet, N: int) -> np.ndarray:
    """(n, N): the first N Taylor coefficients of every e_k at 0, by the closed-form reader."""
    return _basis_taylor(sigma.points, 0.0, N)[:, :, 0].T


class TestBasis:
    def test_single_origin(self):
        basis = malmquist_basis(SigmaSet((0.0,)))
        assert np.allclose(basis.series[0].trimmed().coeffs, [1.0])

    def test_double_origin(self):
        basis = malmquist_basis(SigmaSet((0.0, 0.0)))
        assert np.allclose(basis.series[0].trimmed().coeffs, [1.0])
        assert np.allclose(basis.series[1].trimmed().coeffs, [0.0, -1.0])

    def test_single_point_geometric(self):
        lam = 0.6 + 0.1j
        basis = malmquist_basis(SigmaSet((lam,)))
        e1 = basis.series[0]
        ks = np.arange(40)
        expect = np.sqrt(1 - abs(lam) ** 2) * np.conj(lam) ** ks
        assert np.max(np.abs(e1.coeffs[:40] - expect)) < 1e-12
        assert np.sum(np.abs(e1.coeffs) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality_random(self, rng):
        for _ in range(20):
            sigma = random_sigma(rng, n_max=8, r_max=0.95)
            E = malmquist_basis(sigma).coeff_matrix()
            gram = E.conj() @ E.T
            assert np.max(np.abs(gram - np.eye(sigma.n))) <= 1e-8

    def test_blaschke_multiples_are_orthogonal(self, rng):
        sigma = random_sigma(rng, n_max=5, r_max=0.8)
        basis = malmquist_basis(sigma)
        B = oracles.blaschke_taylor(sigma.points, basis.degree + 1)
        q = random_poly(rng, 8)
        bq = np.convolve(B, q.coeffs)
        for e in basis.series:
            assert abs(np.vdot(e.coeffs, bq[: len(e)])) <= 1e-8 * norm(hardy(2), q)

    def test_first_degree_respects_cap(self):
        # the adaptive start for r = 0.9999 would exceed the truncation cap
        with pytest.raises(TruncationError):
            malmquist_basis(SigmaSet((0.9999,)))

    @pytest.mark.parametrize("points", [(0.9999,), (0.9999, -0.9999j, 0.3, 0.3)])
    def test_failure_at_cap_is_settled_at_4096_columns(self, monkeypatch, points):
        # the rows would drop ||T_B^(2^16)||_F^2 > 1e-11 at the cap, which the
        # basis reads off 16 squarings of T_B before it builds 65536 columns
        sigma = SigmaSet(points)

        def failure():
            with pytest.raises(TruncationError) as info:
                malmquist_basis(sigma)
            return str(info.value)

        message, columns, _ = _counted(monkeypatch, failure)
        assert columns == 4096
        T = np.linalg.matrix_power(_compressed_shift(np.conj(sigma.points)), 1 << 16)
        want = np.vdot(T, T).real
        assert message.startswith("Malmquist truncation at degree 65535 drops coefficient mass ")
        assert float(message.split()[8]) == pytest.approx(want, rel=1e-3)
        assert message.endswith(f"(r={sigma.r:.3f}); tolerance 1e-11")

    def test_cap_check_adds_no_work_below_4096_columns(self, monkeypatch):
        for sigma in self._seeded_sets():
            basis, columns, shifts = _counted(monkeypatch, lambda: malmquist_basis(sigma))
            assert columns == basis.degree + 1 < 4096
            assert shifts == 1
        # a basis that passes the check is built as before
        basis, columns, shifts = _counted(monkeypatch, lambda: malmquist_basis(SigmaSet((0.999,))))
        assert basis.degree + 1 == columns == 36864
        assert shifts == 2

    @staticmethod
    def _seeded_sets():
        """Seeded node sets, r <= 0.9, with repeated and zero nodes."""
        rng = np.random.default_rng(1818)
        for i in range(24):
            points = list(random_sigma(rng, n_max=8, r_max=0.9).points)
            if i % 3 == 1:
                points += points[:1]
            if i % 3 == 2:
                points[int(rng.integers(len(points)))] = 0.0
                points += [0.0]
            yield SigmaSet(tuple(points))

    def test_dropped_mass_is_frobenius_norm_of_shift_power(self):
        # sum_m v_m v_m^H = I, so the rows drop exactly the row masses of T_B^N
        for sigma in self._seeded_sets():
            E = _taylor_rows(sigma, 4096)
            T = _compressed_shift(sigma.points)
            for N in (4, 16, 64):
                want = np.sum(np.abs(np.linalg.matrix_power(T, N)) ** 2, axis=1)
                got = np.sum(np.abs(E[:, N:]) ** 2, axis=1)
                assert np.max(np.abs(got - want)) <= 1e-10

    def test_rows_are_prefixes_of_a_longer_basis(self):
        for sigma in self._seeded_sets():
            E = malmquist_basis(sigma).coeff_matrix()
            N = E.shape[1]
            longer = _taylor_rows(sigma, 2 * N)
            assert np.max(np.abs(E - longer[:, :N])) <= 2e-15

    def test_length_is_least_certified_grid_point(self):
        # the grid 1, 2, 4, .., 256, 512, 768, ..; the r = 0.95 sets pass 512
        grid = [1 << j for j in range(9)] + [256 * j for j in range(2, 257)]
        rng = np.random.default_rng(2020)
        near = []
        for k in (1, 2, 3):
            near.append(SigmaSet((0.95 * np.exp(1j * rng.uniform(0, 2 * np.pi)),) * k))
            points = random_sigma(rng, n_max=4, r_max=0.95).points
            near.append(SigmaSet(points + (0.95,) * k))
        lengths = set()
        for sigma in list(self._seeded_sets()) + near:
            N = malmquist_basis(sigma).degree + 1
            assert N in grid
            lengths.add(N)
            T = _compressed_shift(sigma.points)

            def mass(m):
                P = np.linalg.matrix_power(T, m)
                return np.vdot(P, P).real

            assert mass(N) <= 2.0**-106
            if N > 1:
                assert mass(grid[grid.index(N) - 1]) > 2.0**-106
        assert max(lengths) > 512

    def test_origin_degree(self):
        # T_B is the nilpotent shift: T_B^N = 0 exactly from N = n on
        for n in range(1, 11):
            want = 1 << (n - 1).bit_length()
            assert malmquist_basis(SigmaSet((0.0,) * n)).degree == want - 1

    def test_rational_evaluator_matches_series(self, rng):
        sigma = random_sigma(rng, n_max=6, r_max=0.7)
        basis = malmquist_basis(sigma)
        zs = 0.6 * np.exp(2j * np.pi * rng.uniform(size=8))
        vals = basis.eval(zs)
        for k, e in enumerate(basis.series):
            assert np.max(np.abs(vals[k] - eval_series(e, zs))) < 1e-10


def _blaschke_basis_values(points, zs):
    """e_k(z) = s_k / (1 - conj(lam_k) z) prod_{j<k} b_{lam_j}(z), from oracles.blaschke_value."""
    return np.array([
        [np.sqrt(1 - abs(lam) ** 2) / (1 - np.conj(lam) * z) * oracles.blaschke_value(points[:k], z)
         for z in zs]
        for k, lam in enumerate(points)
    ])


class TestBasisJets:
    """_basis_jets: C[i, k] = e_k^(d_i)(lam_i) on the functionals of sigma."""

    SETS = [
        (0.3, -0.5 + 0.4j, 0.9j, 0.0),  # distinct
        (0.5, 0.5, 0.5, -0.4j, -0.4j, 0.7),  # mixed
        (0.7 - 0.2j,) * 4,  # one repeated point
        (0.0, 0.5, 0.0, -0.3 + 0.6j, 0.5, 0.0),  # interleaved, zero nodes
    ]

    @pytest.mark.parametrize("points", SETS)
    def test_lower_triangular(self, points):
        C = _basis_jets(SigmaSet(points))
        assert np.array_equal(np.triu(C, 1), np.zeros_like(C))
        assert np.all(np.diag(C) != 0)

    def test_distinct_nodes_are_basis_values(self, rng):
        for _ in range(20):
            sigma = random_sigma(rng, n_max=8, r_max=0.95, distinct=True)
            want = _blaschke_basis_values(sigma.points, sigma.points).T
            got = _basis_jets(sigma)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("points", SETS[1:])
    def test_matches_jets_of_basis_rows(self, points):
        sigma = SigmaSet(points)
        want = np.array([jet_values(e, sigma) for e in malmquist_basis(sigma).series]).T
        got = _basis_jets(sigma)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestBasisTaylor:
    """_basis_taylor: the first m Taylor coefficients of every e_k(z + h)."""

    def test_values_are_blaschke_products(self, rng):
        for t in range(30):
            sigma = random_sigma(rng, n_max=8, r_max=(0.5, 0.9, 0.99)[t % 3])
            if t % 2:
                sigma = SigmaSet(sigma.points + sigma.points[: 1 + t % 3])
            zs = np.concatenate((
                0.95 * np.sqrt(rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6)),
                np.exp(2j * np.pi * rng.uniform(size=4)),
                sigma.points[:2],
            ))
            want = _blaschke_basis_values(sigma.points, zs)
            got = _basis_taylor(sigma.points, zs)
            assert got.shape == (1, sigma.n, zs.size)
            assert np.max(np.abs(got[0] - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("points", TestBasisJets.SETS)
    def test_origin_coefficients_are_basis_coefficients(self, points):
        E = malmquist_basis(SigmaSet(points)).coeffs
        for m in (1, 3, 6):
            got = _basis_taylor(points, 0.0, m)[:, :, 0].T
            assert np.max(np.abs(got - E[:, :m])) <= 1e-14 * np.max(np.abs(E[:, :m]))


class TestProjection:
    def test_idempotent_on_span(self, rng):
        sigma = random_sigma(rng, n_max=5, r_max=0.8)
        basis = malmquist_basis(sigma)
        coords = rng.standard_normal(sigma.n) + 1j * rng.standard_normal(sigma.n)
        f = CoeffSeries(coords @ basis.coeff_matrix())
        tf = project(basis, f)
        assert np.max(np.abs(tf.coeffs - f.coeffs)) <= 1e-9

    def test_annihilates_blaschke_multiples(self, rng):
        sigma = random_sigma(rng, n_max=5, r_max=0.8)
        basis = malmquist_basis(sigma)
        B = oracles.blaschke_taylor(sigma.points, basis.degree + 1)
        bq = CoeffSeries(np.convolve(B, random_poly(rng, 6).coeffs))
        tf = project(basis, bq)
        assert norm(hardy(2), tf) <= 1e-8 * max(1.0, norm(hardy(2), bq))

    def test_double_origin_frozen(self):
        basis = malmquist_basis(SigmaSet((0.0, 0.0)))
        tf = project(basis, CoeffSeries([1.0, 1.0, 1.0]))
        assert np.allclose(tf.trimmed(1e-12).coeffs, [1.0, 1.0], atol=1e-12)

    def test_jet_interpolation(self, rng):
        sigma = SigmaSet((0.5, 0.5, -0.3 + 0.4j))
        basis = malmquist_basis(sigma)
        f = random_poly(rng, 20)
        tf = project(basis, f)
        want = jet_values(f, sigma)
        got = jet_values(tf, sigma)
        assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)

    def test_order_invariance(self, rng):
        pts = (0.5, -0.2 + 0.3j, 0.1j, 0.5)
        f = random_poly(rng, 12)
        tf1 = project(malmquist_basis(SigmaSet(pts)), f)
        perm = (pts[2], pts[0], pts[3], pts[1])
        tf2 = project(malmquist_basis(SigmaSet(perm)), f)
        pad = max(len(tf1), len(tf2))
        assert np.max(np.abs(tf1.padded(pad) - tf2.padded(pad))) <= 1e-8


class TestBernstein:
    def test_constants_have_zero_derivative(self):
        assert bernstein_ratio(SigmaSet((0.0,))) == 0.0

    def test_double_origin_is_one(self):
        assert bernstein_ratio(SigmaSet((0.0, 0.0))) == pytest.approx(1.0, abs=1e-12)

    def test_monomial_space_floor(self):
        for n in (2, 4, 7):
            ratio = bernstein_ratio(SigmaSet((0.0,) * n))
            assert ratio == pytest.approx(n - 1, abs=1e-10)
            assert ratio <= 2.5 * n

    def test_bound_random(self, rng):
        for _ in range(25):
            sigma = random_sigma(rng, n_max=10, r_max=0.9)
            bound = 2.5 * sigma.n / (1.0 - sigma.r)
            assert bernstein_ratio(sigma) <= bound

    def test_matches_per_row_derivative_chain(self, rng):
        for i in range(25):
            sigma = random_sigma(rng, n_max=8, r_max=0.9)
            basis = malmquist_basis(sigma)
            order = 1 + i % 3
            rows = []
            for e in basis.series:
                for _ in range(order):
                    e = e.derivative()
                rows.append(e.coeffs)
            D = np.vstack(rows)
            want = np.sqrt(max(np.linalg.eigvalsh(D @ D.conj().T)[-1], 0.0))
            got = bernstein_ratio(sigma, order=order)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_iterated_bound(self, rng):
        import math

        for _ in range(10):
            sigma = random_sigma(rng, n_max=6, r_max=0.85)
            for k in (1, 2, 3):
                bound = math.factorial(k) * (2.5 * sigma.n / (1.0 - sigma.r)) ** k
                assert bernstein_ratio(sigma, order=k) <= bound

    @pytest.mark.parametrize("points", [(0.9999,) * 8, (0.999,) * 32])
    def test_near_circle_needs_no_truncated_basis(self, points):
        # malmquist_basis raises TruncationError on both sets; the Stein sum does not
        import math

        sigma = SigmaSet(points)
        with pytest.raises(TruncationError):
            malmquist_basis(sigma)
        for k in (1, 2):
            ratio = bernstein_ratio(sigma, order=k)
            assert 0.0 < ratio <= math.factorial(k) * (2.5 * sigma.n / (1.0 - sigma.r)) ** k

    def test_matches_taylor_reference_with_repeats(self, rng, monkeypatch):
        # G = sum_m ((m)_k)^2 v_m v_m^H against the derivative rows of the
        # closed-form Taylor coefficients, read far past the Stein cut; no basis is built
        def refuse(sigma):
            raise AssertionError("bernstein_ratio built a truncated basis")

        monkeypatch.setattr("discinterp.modelspace.malmquist_basis", refuse)
        for i in range(12):
            points = random_sigma(rng, n_max=6, r_max=0.99).points
            sigma = SigmaSet(points + points[:1] * (1 + i % 2))
            E = _taylor_rows(sigma, 8192)
            for k in (1, 2, 3):
                D = E[:, k:] * _falling(np.arange(k, E.shape[1]), k)
                want = np.sqrt(np.linalg.eigvalsh(D @ D.conj().T)[-1])
                assert bernstein_ratio(sigma, order=k) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_divergence_past_the_series_cap(self):
        # no 2^16 basis cap applies; the Stein blocks raise Divergence past 2^21 columns
        with pytest.raises(Divergence):
            bernstein_ratio(SigmaSet((1 - 1e-7,) * 2))

    @pytest.mark.parametrize("k", [12, 20, 30, 52])
    def test_weighted_cut_at_high_order(self, k):
        # one node at 1/2: G = (1 - x) sum_m perm(m, k)^2 x^m with x = 1/4, summed
        # exactly far past its peak; a cut at the unweighted mass 2^-106 is
        # 6.6e-6 low at order 20, 14% at order 30 and seven orders of magnitude at 52
        N = 1200
        total = sum(math.perm(m, k) ** 2 << 2 * (N - m) for m in range(k, N))
        want = math.sqrt(Fraction(3 * total, 4 ** (N + 1)))
        assert bernstein_ratio(SigmaSet((0.5,)), order=k) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_mass_below_the_float_range_still_cuts(self):
        # one node at 0.99, order 47: G is about 2.1e305, and the mass
        # 0.99^(2M) underflows near M = 36,900, before the cut is certified
        # near M = 37,500; s^2 sum_m ((m)_47)^2 0.99^(2m), summed at 40 digits
        want = 4.6199260822253106e152
        assert bernstein_ratio(SigmaSet((0.99,)), order=47) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_out_of_range_is_an_error_not_a_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # from order 171 the weight (m)_k is past the float range
            with pytest.raises(FloatingPointError, match="order-200 Gram overflows"):
                bernstein_ratio(SigmaSet((0.5,)), order=200)
            # the mass underflows to 0 by column 88, before any column with a
            # nonzero weight: the value, 1.28e-37, is not 0
            with pytest.raises(FloatingPointError, match="order-150 Gram underflows"):
                bernstein_ratio(SigmaSet((0.01,)), order=150)
            # every column with a nonzero weight is zero: nothing is out of range
            assert bernstein_ratio(SigmaSet((0.0, 0.0)), order=200) == 0.0

    @pytest.mark.parametrize("n, k", [(190, 200), (171, 172)])
    def test_zero_weights_past_the_float_range(self, n, k):
        # (m)_k = 0 for m < k, though m! overflows from m = 171, and the
        # columns v_m = 0, m >= n, stay 0 where (m)_k overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(_falling(np.arange(k), k), np.zeros(k))
            assert bernstein_ratio(SigmaSet((0.0,) * n), order=k) == 0.0


class TestOperatorNorm:
    def test_single_origin(self):
        assert projection_operator_norm(hardy(2), SigmaSet((0.0,))) == pytest.approx(1.0)

    def test_single_point_closed_form(self):
        # sup_|z|=1 |e_1(z)| = sqrt((1+r)/(1-r)) for a single real node r
        for r in (0.3, 0.8):
            got = projection_operator_norm(hardy(2), SigmaSet((r,)))
            assert got == pytest.approx(np.sqrt((1 + r) / (1 - r)), rel=1e-10)

    def test_single_point_off_grid(self):
        # the node sits half a coarse-grid step off the grid 2 pi k / 4096
        for r in (0.3, 0.8, 0.95):
            got = projection_operator_norm(hardy(2), SigmaSet((r * np.exp(1j * np.pi / 4096),)))
            assert got == pytest.approx(np.sqrt((1 + r) / (1 - r)), rel=1e-12)

    def test_double_origin_sqrt2(self):
        got = projection_operator_norm(hardy(2), SigmaSet((0.0, 0.0)))
        assert got == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_stein_gram_matches_truncated_basis(self, rng):
        # S_kl = sum_m kappa_m conj(E_km) E_lm from T_B alone, against the coefficients
        spaces = (hardy(2), seq_weighted(2, 1.5), bergman_radial(2, 1.0), bergman_radial(2, -0.5))
        for i in range(12):
            sigma = random_sigma(rng, n_max=8, r_max=0.9)
            if i % 2 and sigma.n > 1:  # a repeated node
                sigma = SigmaSet(sigma.points[:-1] + sigma.points[:1])
            E = malmquist_basis(sigma).coeff_matrix()
            for space in spaces:
                want = (E.conj() * kernel_diagonal(space, np.arange(E.shape[1]))) @ E.T
                got = _malmquist_gram(space, sigma)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("space", [hardy(2), seq_weighted(2, 1)])
    def test_unit_kernel_gram_is_the_identity_near_the_circle(self, rng, space):
        # S = sum_m v_m v_m^H = I exactly, where a Stein sum of hundreds of
        # blocks was off by up to 2e-12 at r = 0.9999
        for n in (1, 4, 16):
            points = 0.9999 * np.exp(2j * np.pi * rng.uniform(size=n))
            S = _malmquist_gram(space, SigmaSet(tuple(points)))
            assert np.array_equal(S, np.eye(n))

    def test_malmquist_series_matches_truncated_basis(self, rng):
        # the Taylor series of sum_k b_k e_k from T_B alone, against b^T E
        for i in range(12):
            sigma = random_sigma(rng, n_max=8, r_max=0.9)
            if i % 2 and sigma.n > 1:  # a repeated node
                sigma = SigmaSet(sigma.points[:-1] + sigma.points[:1])
            b = rng.standard_normal(sigma.n) + 1j * rng.standard_normal(sigma.n)
            want = b @ malmquist_basis(sigma).coeff_matrix()
            got = _malmquist_series(sigma.points, b)
            m = min(got.size, want.size)
            assert np.max(np.abs(got[:m] - want[:m])) <= 1e-14 * np.max(np.abs(want))
            # past the common length both are below the tail rule
            rest = np.concatenate((got[m:], want[m:]))
            assert np.sum(np.abs(rest) ** 2) <= 1e-13 * np.sum(np.abs(want) ** 2)

    @staticmethod
    def _block_series(points, b):
        """The Taylor coefficients of sum_k b_k e_k, each block T^w times the one before.

        The first block doubles by the walk's rule, from _compressed_shift alone."""
        step = _compressed_shift(np.conj(points))
        lam = step.diagonal()
        e0 = np.sqrt(1.0 - np.abs(lam) ** 2) * np.cumprod(np.concatenate(([1.0], lam[:-1])))
        V = e0.conj()[:, None]
        floor = 2.0**-106 * np.vdot(b, b).real
        while np.vdot(step.T @ b, step.T @ b).real > floor and V.shape[1] < 256:
            V, step = np.hstack((V, step @ V)), step @ step
        pieces, P = [b @ V], step.T @ b
        while np.vdot(P, P).real > floor:
            V, P = step @ V, step.T @ P
            pieces.append(b @ V)
        return np.concatenate(pieces)

    def test_series_carries_one_row_per_block(self, rng):
        # block j is P_(j-1)^T V_0: the same coefficients as propagating the blocks
        for i in range(12):
            points = list(random_sigma(rng, n_max=8, r_max=0.95).points)
            if i % 3 == 1:
                points += points[:1]
            if i % 3 == 2:
                points += [0.0, 0.0]
            points = np.array(points)
            b = rng.standard_normal(points.size) + 1j * rng.standard_normal(points.size)
            got = _malmquist_series(points, b)
            want = self._block_series(points, b)
            assert got.dtype == complex and got.size == want.size
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_probed_walk_is_the_probe_times_the_identity_walk(self, rng):
        # block by block, the walk with a probe b is b^T times the identity
        # walk's columns, and its mass past M is ||(T^M)^T b||^2
        for i in range(12):
            points = list(random_sigma(rng, n_max=8, r_max=0.95).points)
            if i % 4 == 1:
                points += points[:1]
            if i % 4 == 2:
                points += [0.0, 0.0]
            points = np.array(points)
            b = rng.standard_normal(points.size) + 1j * rng.standard_normal(points.size)
            if i % 4 == 3:  # real data
                points, b = points.real, b.real
            T = _compressed_shift(points)
            identity = _stein_blocks(points)
            E = np.empty((points.size, 0))
            M = 0
            for piece, mass, _ in _stein_blocks(points, b):
                M += piece.size
                while E.shape[1] < M:
                    E = np.hstack((E, next(identity)[0]))
                want = b @ E[:, M - piece.size : M]
                assert np.max(np.abs(piece - want)) <= 1e-14 * np.linalg.norm(b)
                P = np.linalg.matrix_power(T, M).T @ b
                assert mass == pytest.approx(np.vdot(P, P).real, rel=1e-12, abs=0.0)
                if mass <= 2.0**-106 * np.vdot(b, b).real:
                    break
            assert M == _malmquist_series(np.conj(points), b).size

    def test_series_walks_are_stein_blocks(self, monkeypatch):
        # min_norm_trace reads its series from the one walk, with the
        # coordinates as its probe; the m >= 3 witness walks it once, for the
        # Stein Gram of its real zeros, and sums no series
        walks, kinds = [], []

        def recording(points, probe=None):
            walks.append(None if probe is None else np.array(probe))
            kinds.append(np.asarray(points).dtype.kind)
            yield from _stein_blocks(points, probe)

        monkeypatch.setattr("discinterp.spaces._stein_blocks", recording)
        space = seq_weighted(2, 1.5)
        min_norm_trace(space, SigmaSet((0.5, -0.3j, 0.5)), [1.0, 2.0, -1.0])
        assert walks[0] is None and len(walks) == 2 and walks[1].shape == (3,)
        walks.clear()
        kinds.clear()
        witness_lower_bound(seq_weighted(2, 2), 0.9, 8)
        assert walks == [None] and kinds == ["f"]

    def test_series_is_real_on_real_data(self, rng):
        # real zeros and a real b keep real arithmetic, equal to the complex run
        for i in range(8):
            points = rng.uniform(-0.95, 0.95, size=int(rng.integers(1, 9)))
            if i % 2:
                points = np.append(np.repeat(points[:1], 40), 0.0)  # a witness's zeros
            b = rng.standard_normal(points.size)
            got = _malmquist_series(points, b)
            want = _malmquist_series(points.astype(complex), b.astype(complex))
            assert got.dtype == np.float64 and got.size == want.size
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_series_tail_is_the_probed_shift_power(self, rng):
        # past its M coefficients the series drops exactly ||(T'^M)^T b||^2,
        # T' the shift of the conjugate nodes, and that is at most 2^-106 ||b||^2
        for i in range(12):
            sigma = random_sigma(rng, n_max=8, r_max=0.95)
            if i % 2 and sigma.n > 1:  # a repeated node
                sigma = SigmaSet(sigma.points[:-1] + sigma.points[:1])
            b = rng.standard_normal(sigma.n) + 1j * rng.standard_normal(sigma.n)
            got = _malmquist_series(sigma.points, b)
            M = got.size
            reference = b @ _taylor_rows(sigma, M + 4096)
            assert np.max(np.abs(got - reference[:M])) <= 1e-14 * np.max(np.abs(got))
            tail = np.sum(np.abs(reference[M:]) ** 2)
            P = np.linalg.matrix_power(_compressed_shift(np.conj(sigma.points)), M).T @ b
            want = np.vdot(P, P).real
            assert tail == pytest.approx(want, rel=1e-12)
            assert want <= 2.0**-106 * np.vdot(b, b).real

    def test_gram_tail_is_under_its_bound(self, rng, monkeypatch):
        # past M columns the Stein sum drops at most
        # ||T^M||_2^2 (kappa_M / kappa_0) tr S of its trace, and at most _TAIL_EPS tr S;
        # on H^2 it is the identity and takes no column
        spaces = (seq_weighted(2, 1.5), seq_weighted(2, 2),
                  bergman_radial(2, -0.5), bergman_radial(2, 1.0))
        for i in range(8):
            sigma = random_sigma(rng, n_max=6, r_max=0.9)
            if i % 2 and sigma.n > 1:  # a repeated node
                sigma = SigmaSet(sigma.points[:-1] + sigma.points[:1])
            S, M, shifts = _counted(monkeypatch, lambda: _malmquist_gram(hardy(2), sigma))
            assert np.array_equal(S, np.eye(sigma.n)) and M == shifts == 0
            E = _taylor_rows(sigma, 8192)
            T = _compressed_shift(sigma.points)
            for space in spaces:
                S, M, _ = _counted(monkeypatch, lambda: _malmquist_gram(space, sigma))
                kappa = kernel_diagonal(space, np.arange(E.shape[1]))
                tail = np.sum(kappa[M:] * np.sum(np.abs(E[:, M:]) ** 2, axis=0))
                trace = np.trace(S).real
                shift_norm = np.linalg.norm(np.linalg.matrix_power(T, M), 2)
                assert tail <= shift_norm**2 * kappa[M] / kappa[0] * trace * (1 + 1e-9)
                assert tail <= 2.0**-53 * trace

    def test_near_circle_needs_no_truncated_basis(self):
        # on H^2 the squared dual norm at z on the circle is |B'(z)|
        lam = np.array([0.9999, -0.9999j, 0.3, 0.3])
        sigma = SigmaSet(tuple(lam))
        with pytest.raises(TruncationError):
            malmquist_basis(sigma)
        zs = np.exp(1j * np.concatenate((np.linspace(-1e-3, 1e-3, 200001),
                                         -np.pi / 2 + np.linspace(-1e-3, 1e-3, 200001))))
        b_prime = (1 - np.abs(lam[:, None]) ** 2) / np.abs(zs - lam[:, None]) ** 2
        want = np.sqrt(np.max(np.sum(b_prime, axis=0)))
        got = projection_operator_norm(hardy(2), sigma)
        assert got == pytest.approx(want, rel=1e-9)
        assert got == pytest.approx(141.43, rel=1e-4)
        seq = projection_operator_norm(seq_weighted(2, 1.5), sigma)
        assert np.isfinite(seq) and seq == pytest.approx(10003.7, rel=1e-5)

    def test_dominates_observed_ratios(self, rng):
        for space in (hardy(2), seq_weighted(2, 1.5)):
            sigma = random_sigma(rng, n_max=4, r_max=0.7)
            basis = malmquist_basis(sigma)
            top = projection_operator_norm(space, sigma)
            for _ in range(8):
                f = random_poly(rng, 14)
                ratio = norm(hardy(np.inf), project(basis, f)) / norm(space, f)
                assert ratio <= top * (1 + 1e-8) + 1e-9

    @pytest.mark.parametrize(
        "points",
        [
            (0.3, -0.5 + 0.4j, 0.9j),  # distinct
            (0.7 - 0.2j, 0.7 - 0.2j, 0.7 - 0.2j, -0.4),  # repeated
            (0.0, 0.0, 0.5, 0.0),  # zero nodes
        ],
    )
    def test_basis_derivatives_against_central_differences(self, points):
        # the last point is a node, where e_k may vanish to high order
        zs = np.array([0.2 + 0.1j, -0.6j, np.exp(0.7j), np.exp(-2.5j), -0.3, points[0]])
        e, e1, half_e2 = _basis_taylor(points, zs, 3)
        e2 = 2 * half_e2
        assert np.array_equal(e, _basis_taylor(points, zs)[0])
        h = 1e-4
        ep, em = _basis_taylor(points, zs + h)[0], _basis_taylor(points, zs - h)[0]
        # the differences are off by h^2 times the third and fourth derivatives
        assert np.max(np.abs(e1 - (ep - em) / (2 * h))) <= 1e-6 * np.max(np.abs(e1))
        assert np.max(np.abs(e2 - (ep - 2 * e + em) / h**2)) <= 1e-6 * np.max(np.abs(e2))

    @staticmethod
    def _refined_grid_max(space, sigma, m=1 << 18):
        """sqrt of the largest g on m angles, and on m / 64 angles around its top."""
        S = _malmquist_gram(space, sigma)

        def g(ts):
            e = _basis_taylor(sigma.points, np.exp(1j * ts))[0]
            return np.real(np.sum(e * (S @ e.conj()), axis=0))

        thetas = 2 * np.pi * np.arange(m) / m
        vals = np.concatenate([g(chunk) for chunk in np.split(thetas, 16)])
        top = thetas[np.argmax(vals)]
        local = top + np.linspace(-1.0, 1.0, m // 64) * (2 * np.pi / m)
        return np.sqrt(vals.max()), np.sqrt(g(local).max())

    def test_matches_refined_grid_maximum(self):
        # at r = 0.95 the 2^18-angle grid alone sits a few 1e-8 below
        # the top, so the reference refines it around its best angle
        rng = np.random.default_rng(1616)
        spaces = (hardy(2), seq_weighted(2, 1.5), bergman_radial(2, 1.0))
        for i, r in enumerate((0.5, 0.8, 0.9, 0.95, 0.95, 0.95)):
            points = list(random_sigma(rng, n_max=8, r_max=r).points)
            # the outermost node moved out to modulus r and repeated once or twice
            k = int(np.argmax(np.abs(points)))
            points[k] *= r / abs(points[k])
            sigma = SigmaSet(tuple(points) + (points[k],) * (1 + i % 2))
            space = spaces[i % 3]
            got = projection_operator_norm(space, sigma)
            coarse, fine = self._refined_grid_max(space, sigma)
            assert got >= coarse
            assert got == pytest.approx(fine, rel=1e-13, abs=0.0)


def _gram_path_g(space, sigma):
    """theta -> (g, g', g'') for g = e^T S conj(e), S the Stein Gram."""
    S = _malmquist_gram(space, sigma)

    def g(ts):
        z = np.exp(1j * ts)
        e, e1, half_e2 = _basis_taylor(sigma.points, z, 3)
        d1 = 1j * z * e1
        d2 = -z * e1 - 2 * z * z * half_e2
        w = S @ e.conj()
        return (
            np.real(np.sum(e * w, axis=0)),
            2.0 * np.real(np.sum(d1 * w, axis=0)),
            2.0 * np.real(np.sum(d2 * w + d1 * (S @ d1.conj()), axis=0)),
        )

    return g


def _gram_path_norm(space, sigma):
    """The operator norm from the Gram path's g, polished with g' and g'' in closed form."""
    g = _gram_path_g(space, sigma)
    thetas = 2.0 * np.pi * np.arange(4096) / 4096
    return float(np.sqrt(_polished_max(g(thetas)[0], thetas, g, 8)))


class TestUnitKernelNorm:
    """On H^2 and l^2_a(1) the operator norm is sqrt(max |B'|), a sum of Poisson kernels."""

    @staticmethod
    def _sets(rng, count):
        for i in range(count):
            points = list(random_sigma(rng, n_max=10, r_max=0.95).points)
            if i % 3 == 1:  # a repeated node
                points += points[:1]
            if i % 3 == 2:  # mixed: a node repeated twice, and the origin
                points += points[:1] * 2 + [0.0]
            yield SigmaSet(tuple(points))

    def test_matches_the_gram_path(self, rng):
        for sigma in self._sets(rng, 24):
            got = projection_operator_norm(hardy(2), sigma)
            want = _gram_path_norm(hardy(2), sigma)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_derivatives_match_the_gram_path(self, rng, monkeypatch):
        # the g, g' and g'' that the Newton polish is handed, at seeded angles
        handed = []

        def recording(vals, thetas, g, top):
            handed.append(g)
            return _polished_max(vals, thetas, g, top)

        monkeypatch.setattr(modelspace, "_polished_max", recording)
        for sigma in self._sets(rng, 12):
            projection_operator_norm(hardy(2), sigma)
            ts = rng.uniform(0.0, 2.0 * np.pi, 64)
            for got, want in zip(handed.pop()(ts), _gram_path_g(hardy(2), sigma)(ts)):
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_seq_alpha_one_is_hardy(self, rng):
        for sigma in self._sets(rng, 9):
            assert projection_operator_norm(seq_weighted(2, 1), sigma) == projection_operator_norm(
                hardy(2), sigma)

    @pytest.mark.parametrize("r", [0.999, 0.99999])
    def test_single_node_near_the_circle(self, r):
        # off the coarse grid by half a step; the Gram path was 1.3e-12 high at r = 0.99999.
        # The reference takes the modulus of the node as stored: rounding
        # r e^{i pi / 4096} to doubles moves it by up to an ulp, which at
        # r = 0.99999 moves sqrt((1 + r) / (1 - r)) by a few 1e-12
        lam = r * np.exp(1j * np.pi / 4096)
        with localcontext() as ctx:
            ctx.prec = 50
            mod2 = Fraction(lam.real) ** 2 + Fraction(lam.imag) ** 2
            rho = (Decimal(mod2.numerator) / Decimal(mod2.denominator)).sqrt()
            want = float(((1 + rho) / (1 - rho)).sqrt())
        assert want == pytest.approx(np.sqrt((1 + r) / (1 - r)), rel=1e-11)
        got = projection_operator_norm(hardy(2), SigmaSet((lam,)))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_one_minus_abs2_is_correctly_rounded(self, rng):
        near = (1 - 10.0 ** -rng.uniform(3, 12, 50)) * np.exp(2j * np.pi * rng.uniform(size=50))
        zs = np.concatenate((rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50), near,
                             [0.0, 0.5, -0.5j, 0.999999999999]))
        for z in zs:
            want = float(1 - Fraction(z.real) ** 2 - Fraction(z.imag) ** 2)
            assert modelspace._one_minus_abs2(complex(z)) == want

    def test_forms_no_gram_and_no_basis_values(self, rng, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("reached on a unit kernel diagonal")

        sigmas = list(self._sets(rng, 6))
        want = [projection_operator_norm(hardy(2), sigma) for sigma in sigmas]
        for name in ("_malmquist_gram", "_basis_taylor", "_stein_blocks"):
            monkeypatch.setattr(modelspace, name, unreachable)
        for space in (hardy(2), seq_weighted(2, 1)):
            assert [projection_operator_norm(space, sigma) for sigma in sigmas] == want
        with pytest.raises(AssertionError, match="unit kernel"):
            projection_operator_norm(seq_weighted(2, 1.5), sigmas[0])

    @pytest.mark.parametrize(
        "space", [hardy(1), hardy(np.inf), seq_weighted(3, 1), bergman_radial(3, 1.0)])
    def test_non_hilbert_still_raises(self, space):
        with pytest.raises(NotHilbert):
            projection_operator_norm(space, SigmaSet((0.5, -0.3j)))
