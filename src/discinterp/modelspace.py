"""Malmquist basis of the model space and the induced linear interpolation.

For a Blaschke product B with zero multiset sigma, the model space
K_B = H^2 (-) B H^2 carries the orthonormal Malmquist basis

    e_k(z) = sqrt(1 - |lam_k|^2) / (1 - conj(lam_k) z) * prod_{j<k} b_{lam_j}(z),

with b_lam(z) = (lam - z)/(1 - conj(lam) z).  The interpolation operator
projects onto span(e_k) through the coefficient pairing
<h, g> = sum_k h_k conj(g_k); its image matches the jet of the input on
sigma.  The kernel-weighted Gram of the basis coefficients and the Taylor
series of any sum_k b_k e_k are sums over powers of the compressed shift
T_B, so neither needs a truncated basis.  The basis itself keeps N = 2^j
coefficients, the fewest whose dropped mass ||T_B^N||_F^2 is at most
2^-106, in one (n, N) matrix; derivative operator norms on K_B are read
off the Gram matrix of that matrix differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import TruncationError
from .extremal import _compressed_shift
from .series import CoeffSeries, SigmaSet, _basis_derivatives, _basis_values, _falling
from .spaces import (
    _CIRCLE_GRID,
    _POLISH_PEAKS,
    _SERIES_BLOCK,
    _SERIES_TOL,
    _TAIL_EPS,
    SpaceSpec,
    _polished_max,
    _series,
    kernel_diagonal,
)
from . import series as _s

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


def _stein_blocks(points) -> Iterator[np.ndarray]:
    """Blocks [v_k, .., v_(k+255)], k = 0, 256, .., of v_m = T_B^m conj(e(0)).

    Column m of E, E[k, m] the m-th coefficient of e_k, is conj(v_m).  The
    first block is built by doubling [V, T^j V] and each later one is T^256
    times the one before, so the series over E need T_B alone.
    """
    lam = np.asarray(points, dtype=complex)
    # e_k(0) = s_k prod_{j<k} lam_j
    e0 = np.sqrt(1.0 - np.abs(lam) ** 2) * np.cumprod(np.concatenate(([1.0], lam[:-1])))
    V, step = e0.conj()[:, None], _compressed_shift(lam)
    while V.shape[1] < _SERIES_BLOCK:
        V, step = np.hstack((V, step @ V)), step @ step
    while True:
        yield V
        V = step @ V


def _malmquist_gram(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """S_kl = sum_m kappa_m conj(E_km) E_lm, the Stein sum sum_m kappa_m v_m v_m^H.

    The least X-norm of an f whose projection onto K_B has the coordinates
    b is sqrt(b^H S^-1 b).  On H^2, S is the identity.
    """
    blocks = _stein_blocks(sigma.points)

    def term(ks):  # _series passes blocks of _SERIES_BLOCK indices in order
        V = next(blocks)
        piece = (V * kernel_diagonal(space, ks)) @ V.conj().T
        return piece, float(np.trace(piece).real)

    S = sum(_series(term, 0, _SERIES_TOL))
    return 0.5 * (S + S.conj().T)


def _malmquist_series(sigma: SigmaSet, b: np.ndarray) -> CoeffSeries:
    """Taylor series of sum_k b_k e_k, cut by the tail rule of every kernel series.

    Coefficient m is b^T conj(v_m); conj(v_m) is v_m of the conjugate node set.
    """
    blocks = _stein_blocks(np.conj(sigma.points))

    def term(ks):  # one block per call, as in _malmquist_gram
        piece = b @ next(blocks)
        return piece, float(np.vdot(piece, piece).real)

    return CoeffSeries(np.concatenate(_series(term, 0, _SERIES_TOL)))


def malmquist_basis(sigma: SigmaSet, n_trunc: int | None = None) -> MalmquistBasis:
    """Construct the Malmquist basis, cut where its dropped tail is certified negligible.

    Column m of the coefficient matrix is conj(v_m), v_m = T_B^m conj(e(0)),
    and sum_m v_m v_m^H = I, so the rows drop exactly ||T_B^N||_F^2 of
    coefficient mass past N columns.  N doubles from 1, squaring T_B^N,
    until that mass is at most _TAIL_EPS^2 = 2^-106 or N reaches
    _TRUNC_CAP = 2^16; a pinned ``n_trunc`` >= 0 takes N = n_trunc + 1.
    Raises TruncationError if the mass exceeds _BASIS_TOL = 1e-11.  The
    degree is N - 1; the Blaschke recursion is exact on every prefix.
    """
    T = _compressed_shift(sigma.points)
    if n_trunc is None:
        length = 1
        while np.vdot(T, T).real > _TAIL_EPS**2 and length < _TRUNC_CAP:
            T, length = T @ T, 2 * length
    elif n_trunc < 0:
        raise ValueError(f"n_trunc must be >= 0, got {n_trunc}")
    else:
        length = int(n_trunc) + 1
        T = np.linalg.matrix_power(T, length)
    mass = float(np.vdot(T, T).real)
    if mass > _BASIS_TOL:
        raise TruncationError(
            f"Malmquist truncation at degree {length - 1} drops coefficient mass "
            f"{mass:.3e} (r={sigma.r:.3f}); tolerance {_BASIS_TOL}"
        )
    E = np.empty((sigma.n, length), dtype=complex)
    running = np.zeros(length, dtype=complex)
    running[0] = 1.0
    for k, lam in enumerate(sigma.points):
        E[k] = np.sqrt(1.0 - abs(lam) ** 2) * _s._div_geometric(running, np.conj(lam))
        running = _s._mul_blaschke(running, lam)
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
