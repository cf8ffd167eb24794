"""Malmquist basis of the model space and the induced linear interpolation.

For a Blaschke product B with zero multiset sigma, the model space
K_B = H^2 (-) B H^2 carries the orthonormal Malmquist basis

    e_k(z) = sqrt(1 - |lam_k|^2) / (1 - conj(lam_k) z) * prod_{j<k} b_{lam_j}(z),

with b_lam(z) = (lam - z)/(1 - conj(lam) z).  The interpolation operator
projects onto span(e_k) through the coefficient pairing
<h, g> = sum_k h_k conj(g_k); its image matches the jet of the input on
sigma.  The kernel-weighted Gram of the basis coefficients and the Taylor
series of any sum_k b_k e_k are sums over powers of the compressed shift
T_B, so neither needs a truncated basis; derivative operator norms on K_B
are read off Gram matrices of differentiated basis series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import TruncationError
from .extremal import _compressed_shift
from .series import CoeffSeries, SigmaSet, _basis_derivatives, _basis_values
from .spaces import (
    _CIRCLE_GRID,
    _POLISH_PEAKS,
    _SERIES_BLOCK,
    _SERIES_TOL,
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
#: largest unit-norm deficit of a basis element that malmquist_basis accepts
_BASIS_TOL = 1e-11


@dataclass(frozen=True)
class MalmquistBasis:
    """Orthonormal basis of K_B, truncated to a common degree."""

    sigma: SigmaSet
    series: tuple[CoeffSeries, ...]

    @property
    def n(self) -> int:
        return len(self.series)

    @property
    def degree(self) -> int:
        return self.series[0].degree

    def coeff_matrix(self) -> np.ndarray:
        """(n, degree+1) array of basis coefficients."""
        return np.vstack([e.coeffs for e in self.series])

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


def _initial_degree(sigma: SigmaSet) -> int:
    r = max(sigma.r, 0.1)
    est = int((-np.log(_BASIS_TOL) + 3.0 * sigma.n) / (1.0 - r)) + 16
    m = 64
    while m < est and m < _TRUNC_CAP:
        m <<= 1
    return m


def malmquist_basis(sigma: SigmaSet, n_trunc: int | None = None) -> MalmquistBasis:
    """Construct the Malmquist basis, truncated so each ||e_k||_2 = 1 - O(1e-11).

    The truncation degree doubles until the coefficient mass lost in the
    tail (the largest unit-norm deficit of a basis element) is at most
    _BASIS_TOL = 1e-11.  Raises TruncationError if degree 2^16, or a pinned
    ``n_trunc`` (tried alone), misses that tolerance.
    """
    pinned = n_trunc is not None
    deg = int(n_trunc) if pinned else _initial_degree(sigma)
    while True:
        basis = _build(sigma, deg)
        deficit = max(
            abs(1.0 - float(np.sum(np.abs(e.coeffs) ** 2))) for e in basis.series
        )
        if deficit <= _BASIS_TOL:
            return basis
        if pinned or deg >= _TRUNC_CAP:
            raise TruncationError(
                f"Malmquist truncation at degree {deg} misses unit norm by "
                f"{deficit:.3e} (r={sigma.r:.3f}); tolerance {_BASIS_TOL}"
            )
        deg *= 2


def _build(sigma: SigmaSet, deg: int) -> MalmquistBasis:
    n_len = deg + 1
    out = []
    running = np.zeros(n_len, dtype=complex)
    running[0] = 1.0
    for lam in sigma.points:
        cl = np.conj(lam)
        e = np.sqrt(1.0 - abs(lam) ** 2) * _s._div_geometric(running, cl)
        out.append(CoeffSeries(e))
        running = _s._mul_blaschke(running, lam)
    return MalmquistBasis(sigma, tuple(out))


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

    Builds the Hermitian Gram matrix of the differentiated basis series
    and returns sqrt of its largest eigenvalue.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if basis is None:
        basis = malmquist_basis(sigma)
    ders = []
    for e in basis.series:
        d = e
        for _ in range(order):
            d = d.derivative()
        ders.append(d.coeffs)
    D = np.vstack(ders)
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
