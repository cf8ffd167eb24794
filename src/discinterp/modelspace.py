"""Malmquist basis of the model space and the induced linear interpolation.

For a Blaschke product B with zero multiset sigma, the model space
K_B = H^2 (-) B H^2 carries the orthonormal Malmquist basis

    e_k(z) = sqrt(1 - |lam_k|^2) / (1 - conj(lam_k) z) * prod_{j<k} b_{lam_j}(z),

with b_lam(z) = (lam - z)/(1 - conj(lam) z).  The interpolation operator
projects onto span(e_k) through the H^2 inner product
<h, g> = sum_k h_k conj(g_k); its image matches the jet of the input on
sigma.  The basis coefficients and their kernel-weighted Gram are summed
from one stream of T_B-power blocks (_stein_blocks) of w columns each, a
later block costing n^2 w; the Taylor series of any sum_k b_k e_k takes
the first block alone and carries one row b^T T_B^(jw) through the later
ones, n^2 + n w each.  Each is cut at its exact dropped mass, so the Gram
and the series need no truncated basis.  The basis keeps the fewest
columns N on the grid 1, 2, 4, .., 256, 512, 768, .. that drop at most
2^-106; derivative operator norms come from the Gram matrix of the
differentiated coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import Divergence, TruncationError
from .extremal import _compressed_shift
from .series import CoeffSeries, SigmaSet, _basis_taylor, _falling
from .spaces import (
    _CIRCLE_GRID,
    _POLISH_PEAKS,
    _DIVERGENCE,
    _SERIES_BLOCK,
    _SERIES_KMAX,
    _TAIL_EPS,
    SpaceSpec,
    _polished_max,
    _unit_kernel,
    kernel_diagonal,
)

__all__ = [
    "MalmquistBasis",
    "malmquist_basis",
    "project",
    "bernstein_ratio",
    "projection_operator_norm",
]

_TRUNC_CAP = 1 << 16
#: column count at which malmquist_basis checks that _TRUNC_CAP columns can meet
#: _BASIS_TOL at all, before it builds them; every basis cut below it skips the check
_CAP_CHECK = 1 << 12
#: largest coefficient mass malmquist_basis lets its rows drop, summed over rows
_BASIS_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class MalmquistBasis:
    """Orthonormal basis of K_B, truncated to a common degree."""

    sigma: SigmaSet
    coeffs: np.ndarray  # read-only (n, degree+1); row k holds e_k

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @property
    def series(self) -> tuple[CoeffSeries, ...]:
        return tuple(CoeffSeries(row) for row in self.coeffs)

    def coeff_matrix(self) -> np.ndarray:
        """(n, degree+1) array of basis coefficients."""
        return self.coeffs

    def eval(self, z) -> np.ndarray:
        """Exact rational values e_k(z); shape (n, len(z))."""
        return _basis_taylor(self.sigma.points, z)[0]


def _first_block(points, probe=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first block V of the columns v_m = T_B^m conj(e(0)), step = T_B^w and (T_B^w)^T Q.

    Column m of E, E[k, m] the m-th coefficient of e_k, is conj(v_m); as
    sum_m v_m v_m^H = I, the columns past M drop ||(T_B^M)^T Q||_F^2 for a
    probe Q (None: Q = I).  V doubles to [V, T^w V] while that mass is above
    2^-106 ||Q||^2 (1 for Q = I) and its width w < _SERIES_BLOCK.  Real for
    a real array of zeros."""
    step = _compressed_shift(points)
    lam = step.diagonal()
    # e_k(0) = s_k prod_{j<k} lam_j
    e0 = np.sqrt(1.0 - np.abs(lam) ** 2) * np.cumprod(np.concatenate(([1.0], lam[:-1])))
    V = e0.conj()[:, None]
    floor = _TAIL_EPS**2 * (1.0 if probe is None else float(np.vdot(probe, probe).real))
    while True:
        P = step.T if probe is None else step.T @ probe  # (T^w)^T Q
        if np.vdot(P, P).real <= floor or V.shape[1] >= _SERIES_BLOCK:
            return V, step, P
        V, step = np.hstack((V, step @ V)), step @ step


def _stein_blocks(points) -> Iterator[tuple[np.ndarray, float]]:
    """Blocks of the columns v_m = T_B^m conj(e(0)), each with the mass ||T_B^M||_F^2 past it.

    The first is _first_block's; later ones are T^w times the one before."""
    V, step, P = _first_block(points)
    while True:
        yield V, float(np.vdot(P, P).real)
        V, P = step @ V, step.T @ P


def _malmquist_gram(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """S_kl = sum_m kappa_m conj(E_km) E_lm, the Stein sum sum_m kappa_m v_m v_m^H.

    The least X-norm of an f whose projection onto K_B has the coordinates
    b is sqrt(b^H S^-1 b).  On H^2, S is the identity.  Past M the sum drops
    at most ||T^M||_2^2 max_j(kappa_(M+j) / kappa_j) tr S of its trace, the
    max at j = 0 for every kappa here, so it stops once ||T^M||_F^2 kappa_M
    <= _TAIL_EPS kappa_0, and diverges past _SERIES_KMAX."""
    kappa_0 = float(kernel_diagonal(space, 0.0))
    S, M = 0.0, 0
    for V, mass in _stein_blocks(sigma.points):
        kappa = kernel_diagonal(space, np.arange(M, M + V.shape[1] + 1))
        S, M = S + (V * kappa[:-1]) @ V.conj().T, M + V.shape[1]
        if mass * kappa[-1] <= _TAIL_EPS * kappa_0:
            return 0.5 * (S + S.conj().T)
        if M > _SERIES_KMAX:
            raise Divergence(_DIVERGENCE)


def _malmquist_cholesky(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """The Cholesky factor L, L L^H = S, of the Stein Gram _malmquist_gram.

    S >= kappa_0 I, as kappa_k never decreases and sum_m v_m v_m^H = I, so
    np.linalg.LinAlgError is raised only where rounding hides that, which
    needs eps lambda_max(S) > kappa_0; its message names S and gives
    lambda_max(S) / kappa_0.  ValueError when S is not finite.
    """
    S = _malmquist_gram(space, sigma)
    if not np.all(np.isfinite(S)):  # np.linalg.cholesky would return NaNs
        raise ValueError("array must not contain infs or NaNs")
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        spread = np.linalg.eigvalsh(S)[-1] / float(kernel_diagonal(space, 0.0))
        raise np.linalg.LinAlgError(
            f"the Stein Gram S of these nodes has no Cholesky factor in double precision"
            f" (lambda_max(S) / kappa_0 = {spread:.3g}; S >= kappa_0 I holds exactly)"
        ) from None


def _malmquist_series(points, b: np.ndarray) -> np.ndarray:
    """Taylor coefficients of sum_k b_k e_k on these zeros, cut at a dropped 2^-106 ||b||^2.

    Coefficient m is b^T conj(v_m), and conj(v_m) is v_m of the conjugate
    zeros.  Over those, block j of width w is b^T T^(jw) V_0 = P_(j-1)^T V_0,
    V_0 the first block (_first_block) and P_j = (T^((j+1)w))^T b, P_(-1) = b,
    the probe whose squared norm is the mass dropped past block j: each
    block after the first costs one n x n and one n x w product.  Real for
    real zeros and a real b.  Diverges past _SERIES_KMAX coefficients.
    """
    floor = _TAIL_EPS**2 * float(np.vdot(b, b).real)
    V, step, P = _first_block(np.conj(points), b)
    pieces = [b @ V]
    while np.vdot(P, P).real > floor:
        if len(pieces) * V.shape[1] > _SERIES_KMAX:  # every block has the same width
            raise Divergence(_DIVERGENCE)
        pieces.append(P @ V)
        P = step.T @ P
    return np.concatenate(pieces)


def malmquist_basis(sigma: SigmaSet, n_trunc: int | None = None) -> MalmquistBasis:
    """Construct the Malmquist basis, cut where its dropped tail is certified negligible.

    The columns are the blocks of _stein_blocks over the conjugate nodes,
    which drop exactly ||T_B^N||_F^2 of coefficient mass past N columns.
    N is the first block end where that mass is at most _TAIL_EPS^2 = 2^-106
    or that reaches _TRUNC_CAP = 2^16; a pinned ``n_trunc`` >= 0 keeps
    n_trunc + 1 columns.  Raises TruncationError if the mass exceeds
    _BASIS_TOL = 1e-11; unpinned, that is settled at _CAP_CHECK = 4096
    columns from ||T_B^(2^16)||_F^2, taken by 16 squarings, so a failing
    basis builds no more columns.  The degree is N - 1."""
    if n_trunc is not None and n_trunc < 0:
        raise ValueError(f"n_trunc must be >= 0, got {n_trunc}")
    cap = _TRUNC_CAP if n_trunc is None else int(n_trunc) + 1
    blocks, width = [], 0
    for V, mass in _stein_blocks(np.conj(sigma.points)):
        blocks.append(V)
        width += V.shape[1]
        if width >= cap or (n_trunc is None and mass <= _TAIL_EPS**2):
            break
        if n_trunc is None and width == _CAP_CHECK:  # on the block grid
            # ||T^M||_F never grows with M (||T||_2 <= 1), so T^cap settles a failure now
            T = _compressed_shift(np.conj(sigma.points))
            for _ in range(_TRUNC_CAP.bit_length() - 1):
                T = T @ T
            cap_mass = float(np.vdot(T, T).real)
            if cap_mass > _BASIS_TOL:
                raise _truncation_error(sigma, cap - 1, cap_mass)
    E = np.hstack(blocks)
    if width > cap:  # columns past a pinned n_trunc
        mass += float(np.vdot(E[:, cap:], E[:, cap:]).real)
        E = np.ascontiguousarray(E[:, :cap])
    if mass > _BASIS_TOL:
        raise _truncation_error(sigma, E.shape[1] - 1, mass)
    E.setflags(write=False)
    return MalmquistBasis(sigma, E)


def _truncation_error(sigma: SigmaSet, degree: int, mass: float) -> TruncationError:
    return TruncationError(
        f"Malmquist truncation at degree {degree} drops coefficient mass "
        f"{mass:.3e} (r={sigma.r:.3f}); tolerance {_BASIS_TOL}"
    )


def project(basis: MalmquistBasis, f: CoeffSeries) -> CoeffSeries:
    """Image of f under the interpolation operator sum_k <f, e_k> e_k."""
    E = basis.coeff_matrix()
    m = min(E.shape[1], len(f))
    coords = E[:, :m].conj() @ f.coeffs[:m]
    return CoeffSeries(coords @ E)


def bernstein_ratio(sigma: SigmaSet, order: int = 1) -> float:
    """Operator norm of order-fold differentiation K_B -> H^2.

    Differentiates the coefficient matrix in one step, column m times the
    falling factorial (m)_order, and returns sqrt of the largest eigenvalue
    of the Hermitian Gram matrix of its rows.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    E = malmquist_basis(sigma).coeffs
    D = E[:, order:] * _falling(np.arange(order, E.shape[1]), order)
    M = D @ D.conj().T
    eig = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return float(np.sqrt(max(eig[-1], 0.0)))


def projection_operator_norm(
    space: SpaceSpec,
    sigma: SigmaSet,
    coarse: int = _CIRCLE_GRID,
    top: int = _POLISH_PEAKS,
) -> float:
    """Exact norm of the interpolation operator from the space into H^inf.

    For fixed z the functional f |-> (Tf)(z) has dual norm sqrt(g) with
    g = e(z)^T S conj(e(z)), S the kernel-weighted Gram of the basis
    coefficients and e(z) the exact rational basis values; the sup over
    the closed disc sits on the circle.  It is located on a ``coarse``-point
    grid, then polished by safeguarded Newton steps on g(theta),
    z = e^{i theta}, at the ``top`` tallest grid peaks together
    (_polished_max).  Every value returned bounds the interpolation
    constant of sigma from above, because Tf interpolates f.

    Where the kernel diagonal is 1 (H^2, and l^2_a with alpha = 1), S = I
    and g(theta) = sum_k |e_k(z)|^2 = K_B(z, z) = |B'(z)| on the circle:
    the sum over the nodes, with multiplicity, of the Poisson kernels
    (1 - |lam|^2) / |z - lam|^2, taken with g' and g'' in closed form by
    _unit_kernel_norm.  No Gram and no basis value is formed, so the value
    holds up to the circle.  Elsewhere S is the Stein sum _malmquist_gram, which
    raises NotHilbert off p = 2, and e, e', e''/2 are Taylor coefficients
    (_basis_taylor): d/dtheta = i z d/dz, g' = 2 Re(e_theta'^T S conj(e))
    and g'' = 2 Re(e_theta''^T S conj(e)) + 2 e_theta'^T S conj(e_theta').
    Either way g carries rounding noise of a few 1e-15 relative (about
    4.7e-15 seen), so the value is not yet a certificate.
    """
    if _unit_kernel(space):
        return _unit_kernel_norm(sigma, coarse, top)
    S = _malmquist_gram(space, sigma)

    def g(ts: np.ndarray):
        z = np.exp(1j * ts)
        e, e1, half_e2 = _basis_taylor(sigma.points, z, 3)  # (n, M) each, d/dz
        d1 = 1j * z * e1
        d2 = -z * e1 - 2.0 * z * z * half_e2
        w = S @ e.conj()
        return (
            np.real(np.sum(e * w, axis=0)),
            2.0 * np.real(np.sum(d1 * w, axis=0)),
            2.0 * np.real(np.sum(d2 * w + d1 * (S @ d1.conj()), axis=0)),
        )

    thetas = 2.0 * np.pi * np.arange(coarse) / coarse
    e = _basis_taylor(sigma.points, np.exp(1j * thetas))[0]
    vals = np.real(np.sum(e * (S @ e.conj()), axis=0))
    return float(np.sqrt(_polished_max(vals, thetas, g, top)))


def _unit_kernel_norm(sigma: SigmaSet, coarse: int, top: int) -> float:
    """sqrt(max |B'|) on the circle, |B'(e^{it})| = sum_k P_k(t) over the nodes with multiplicity.

    P_k = c / D is the Poisson kernel of lam = rho e^{i phi}: c = 1 - rho^2
    and D = |e^{it} - lam|^2 = (1 - rho)^2 + s^2, s = 2 sqrt(rho) sin(psi / 2)
    and psi = t - phi.  c is 1 - |lam|^2 correctly rounded and 1 - rho =
    c / (1 + rho); s and u = 2 sqrt(rho) cos(psi / 2) come from the
    angle-difference formulas, one product of a (2n, 2) and a (2, m)
    matrix, whose rounding only moves t.  So D keeps its relative accuracy
    at the peak of a node near the circle, where 1 + rho^2 - 2 rho cos psi
    cancels.  The Newton polish takes D' = 2 rho sin psi = s u and
    D'' = 2 rho cos psi = (u^2 - s^2) / 2, so P' = -P D' / D and
    P'' = P (2 D'^2 - D D'') / D^2.
    """
    n = sigma.n
    lam = np.asarray(sigma.points, dtype=complex)
    rho, half_phi = np.abs(lam), 0.5 * np.angle(lam)
    c = np.array([_one_minus_abs2(z) for z in sigma.points])[:, None]
    gap2 = (c / (1.0 + rho[:, None])) ** 2
    a, b = 2.0 * np.sqrt(rho) * np.cos(half_phi), 2.0 * np.sqrt(rho) * np.sin(half_phi)
    # the rows of s and then of u, against the columns (sin(t/2), cos(t/2))
    rot = np.concatenate((np.stack((a, -b), axis=1), np.stack((b, a), axis=1)))

    def halves(ts: np.ndarray) -> np.ndarray:
        return np.stack((np.sin(0.5 * ts), np.cos(0.5 * ts)))

    def g(ts: np.ndarray):
        su = rot @ halves(ts)
        s, u = su[:n], su[n:]
        D = gap2 + s * s
        D1 = s * u
        D2 = 0.5 * (u - s) * (u + s)
        P = c / D
        return (
            np.sum(P, axis=0),
            -np.sum(P * D1 / D, axis=0),
            np.sum(P * (2.0 * D1 * D1 - D * D2) / (D * D), axis=0),
        )

    thetas = 2.0 * np.pi * np.arange(coarse) / coarse
    s = rot[:n] @ halves(thetas)
    vals = np.sum(c / (gap2 + s * s), axis=0)
    return float(np.sqrt(_polished_max(vals, thetas, g, top)))


def _one_minus_abs2(z: complex) -> float:
    """1 - |z|^2 correctly rounded: exact integer arithmetic on the binary fractions of z."""
    (a, p), (b, q) = float(z.real).as_integer_ratio(), float(z.imag).as_integer_ratio()
    d = max(p, q) ** 2  # p and q are powers of two
    return (d - a * a * (d // (p * p)) - b * b * (d // (q * q))) / d
