"""Malmquist basis of the model space and the induced linear interpolation.

For a Blaschke product B with zero multiset sigma, the model space
K_B = H^2 (-) B H^2 carries the orthonormal Malmquist basis

    e_k(z) = sqrt(1 - |lam_k|^2) / (1 - conj(lam_k) z) * prod_{j<k} b_{lam_j}(z),

with b_lam(z) = (lam - z)/(1 - conj(lam) z).  The interpolation operator
projects onto span(e_k) through the coefficient pairing
<h, g> = sum_k h_k conj(g_k); its image matches the jet of the input on
sigma.  The basis coefficients, their kernel-weighted Gram and the Taylor
series of any sum_k b_k e_k are summed from one stream of T_B-power blocks
(_stein_blocks), each cut at its exact dropped mass, so the Gram and the
series need no truncated basis.  The basis keeps the fewest columns N on
the grid 1, 2, 4, .., 256, 512, 768, .. that drop at most 2^-106; derivative
operator norms come from the Gram matrix of the differentiated coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import Divergence, TruncationError
from .extremal import _compressed_shift
from .series import CoeffSeries, SigmaSet, _basis_derivatives, _basis_values, _falling
from .spaces import (
    _CIRCLE_GRID,
    _POLISH_PEAKS,
    _DIVERGENCE,
    _SERIES_BLOCK,
    _SERIES_KMAX,
    _TAIL_EPS,
    SpaceSpec,
    _polished_max,
    kernel_diagonal,
)

__all__ = [
    "MalmquistBasis",
    "malmquist_basis",
    "cauchy_pairing",
    "project",
    "bernstein_ratio",
    "projection_operator_norm",
]

_TRUNC_CAP = 1 << 16
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
        return _basis_values(self.sigma, z)


def _stein_blocks(points, probe=None) -> Iterator[tuple[np.ndarray, float]]:
    """Blocks of the columns v_m = T_B^m conj(e(0)), each with the mass dropped past it.

    Column m of E, E[k, m] the m-th coefficient of e_k, is conj(v_m); as
    sum_m v_m v_m^H = I, the columns past M drop ||(T_B^M)^T Q||_F^2 for a
    probe Q (None: Q = I).  The first block doubles [V, T^w V] while that is
    above 2^-106 ||Q||^2 (1 for Q = I) and w < _SERIES_BLOCK; later ones are
    T^w times the one before."""
    lam = np.asarray(points, dtype=complex)
    # e_k(0) = s_k prod_{j<k} lam_j
    e0 = np.sqrt(1.0 - np.abs(lam) ** 2) * np.cumprod(np.concatenate(([1.0], lam[:-1])))
    V, step = e0.conj()[:, None], _compressed_shift(lam)
    floor = _TAIL_EPS**2 * (1.0 if probe is None else float(np.vdot(probe, probe).real))
    while True:
        P = step.T if probe is None else step.T @ probe  # (T^w)^T Q
        if np.vdot(P, P).real <= floor or V.shape[1] >= _SERIES_BLOCK:
            break
        V, step = np.hstack((V, step @ V)), step @ step
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


def _malmquist_series(sigma: SigmaSet, b: np.ndarray) -> CoeffSeries:
    """Taylor series of sum_k b_k e_k, cut where it drops at most 2^-106 ||b||^2.

    Coefficient m is b^T conj(v_m), and conj(v_m) is v_m of the conjugate
    node set, probed by b.  Diverges past _SERIES_KMAX coefficients.
    """
    floor = _TAIL_EPS**2 * float(np.vdot(b, b).real)
    pieces = []
    for V, mass in _stein_blocks(np.conj(sigma.points), b):
        pieces.append(b @ V)
        if mass <= floor:
            return CoeffSeries(np.concatenate(pieces))
        if len(pieces) * V.shape[1] > _SERIES_KMAX:  # every block has the same width
            raise Divergence(_DIVERGENCE)


def malmquist_basis(sigma: SigmaSet, n_trunc: int | None = None) -> MalmquistBasis:
    """Construct the Malmquist basis, cut where its dropped tail is certified negligible.

    The columns are the blocks of _stein_blocks over the conjugate nodes,
    which drop exactly ||T_B^N||_F^2 of coefficient mass past N columns.
    N is the first block end where that mass is at most _TAIL_EPS^2 = 2^-106
    or that reaches _TRUNC_CAP = 2^16; a pinned ``n_trunc`` >= 0 keeps
    n_trunc + 1 columns.  Raises TruncationError if the mass exceeds
    _BASIS_TOL = 1e-11.  The degree is N - 1."""
    if n_trunc is not None and n_trunc < 0:
        raise ValueError(f"n_trunc must be >= 0, got {n_trunc}")
    cap = _TRUNC_CAP if n_trunc is None else int(n_trunc) + 1
    blocks = []
    for V, mass in _stein_blocks(np.conj(sigma.points)):
        blocks.append(V)
        if len(blocks) * V.shape[1] >= cap or (n_trunc is None and mass <= _TAIL_EPS**2):
            break
    E = np.hstack(blocks)
    mass += float(np.vdot(E[:, cap:], E[:, cap:]).real)  # columns past a pinned n_trunc
    E = np.ascontiguousarray(E[:, :cap])
    if mass > _BASIS_TOL:
        raise TruncationError(
            f"Malmquist truncation at degree {E.shape[1] - 1} drops coefficient mass "
            f"{mass:.3e} (r={sigma.r:.3f}); tolerance {_BASIS_TOL}"
        )
    E.setflags(write=False)
    return MalmquistBasis(sigma, E)


def cauchy_pairing(h: CoeffSeries, g: CoeffSeries) -> complex:
    """Coefficient pairing sum_k h_k conj(g_k) over the common range."""
    m = min(len(h), len(g))
    return complex(np.vdot(g.coeffs[:m], h.coeffs[:m]))


def project(basis: MalmquistBasis, f: CoeffSeries) -> CoeffSeries:
    """Image of f under the interpolation operator sum_k <f, e_k> e_k."""
    E = basis.coeff_matrix()
    m = min(E.shape[1], len(f))
    coords = E[:, :m].conj() @ f.coeffs[:m]
    return CoeffSeries(coords @ E)


def bernstein_ratio(
    sigma: SigmaSet, order: int = 1, basis: MalmquistBasis | None = None
) -> float:
    """Operator norm of order-fold differentiation K_B -> H^2.

    Differentiates the coefficient matrix in one step, column m times the
    falling factorial (m)_order, and returns sqrt of the largest eigenvalue
    of the Hermitian Gram matrix of its rows.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if basis is None:
        basis = malmquist_basis(sigma)
    E = basis.coeffs
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
    coefficients (_malmquist_gram) and e(z) the exact rational basis
    values; the sup over the closed disc sits on the circle.  It is
    located on a ``coarse``-point grid, then polished by safeguarded
    Newton steps on g(theta), z = e^{i theta}, at the ``top`` tallest grid
    peaks together (_polished_max).  With d/dtheta = i z d/dz and e', e''
    in closed form (_basis_derivatives), g' = 2 Re(e_theta'^T S conj(e))
    and g'' = 2 Re(e_theta''^T S conj(e)) + 2 e_theta'^T S conj(e_theta').
    Every value returned bounds the interpolation constant of sigma from
    above, because Tf interpolates f.
    """
    S = _malmquist_gram(space, sigma)

    def g(ts: np.ndarray):
        z = np.exp(1j * ts)
        e, e1, e2 = _basis_derivatives(sigma, z)  # (n, M) each, d/dz
        d1 = 1j * z * e1
        d2 = -z * e1 - z * z * e2
        w = S @ e.conj()
        return (
            np.real(np.sum(e * w, axis=0)),
            2.0 * np.real(np.sum(d1 * w, axis=0)),
            2.0 * np.real(np.sum(d2 * w + d1 * (S @ d1.conj()), axis=0)),
        )

    thetas = 2.0 * np.pi * np.arange(coarse) / coarse
    e = _basis_values(sigma, np.exp(1j * thetas))
    vals = np.real(np.sum(e * (S @ e.conj()), axis=0))
    return float(np.sqrt(_polished_max(vals, thetas, g, top)))
