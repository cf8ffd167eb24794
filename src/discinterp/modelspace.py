"""Malmquist basis of the model space and the induced linear interpolation.

For a Blaschke product B with zero multiset sigma, the model space
K_B = H^2 (-) B H^2 carries the orthonormal Malmquist basis

    e_k(z) = sqrt(1 - |lam_k|^2) / (1 - conj(lam_k) z) * prod_{j<k} b_{lam_j}(z),

with b_lam(z) = (lam - z)/(1 - conj(lam) z).  The interpolation operator
projects onto span(e_k) through the H^2 inner product
<h, g> = sum_k h_k conj(g_k); its image matches the jet of the input on
sigma.  The basis coefficients are the blocks of spaces._stein_blocks,
the one walk over the powers of T_B (series._compressed_shift), and the
basis keeps the fewest columns N on the grid 1, 2, 4, .., 256, 512, 768,
.. that drop at most 2^-106.  Only ``basis`` prints it and ``project``
reads it: derivative operator norms sum the same walk, weighted by squared
falling factorials, to a weighted cut of their own, and the interpolation
operator's norm comes from the Stein Gram spaces._malmquist_gram and the
closed-form basis values of series._basis_taylor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .series import CoeffSeries, SigmaSet, _basis_taylor, _compressed_shift, _falling
from .spaces import (_CIRCLE_GRID, _POLISH_PEAKS, _TAIL_EPS, SpaceSpec, _malmquist_gram,
                     _polished_max, _stein_blocks, _unit_kernel)

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


def malmquist_basis(sigma: SigmaSet) -> MalmquistBasis:
    """Construct the Malmquist basis, cut where its dropped tail is certified negligible.

    The columns are the blocks of _stein_blocks over the conjugate nodes,
    which drop exactly ||T_B^N||_F^2 of coefficient mass past N columns.
    N is the first block end where that mass is at most _TAIL_EPS^2 = 2^-106
    or that reaches _TRUNC_CAP = 2^16.  Raises TruncationError if the mass
    exceeds _BASIS_TOL = 1e-11; that is settled at _CAP_CHECK = 4096
    columns from ||T_B^(2^16)||_F^2, taken by 16 squarings, so a failing
    basis builds no more columns.  The degree is N - 1."""
    blocks, width = [], 0
    for V, mass in _stein_blocks(np.conj(sigma.points)):
        blocks.append(V)
        width += V.shape[1]
        if width >= _TRUNC_CAP or mass <= _TAIL_EPS**2:
            break
        if width == _CAP_CHECK:  # on the block grid
            # ||T^M||_F never grows with M (||T||_2 <= 1), so T^cap settles a failure now
            T = np.linalg.matrix_power(_compressed_shift(np.conj(sigma.points)), _TRUNC_CAP)
            cap_mass = float(np.vdot(T, T).real)
            if cap_mass > _BASIS_TOL:
                raise _truncation_error(sigma, _TRUNC_CAP - 1, cap_mass)
    if mass > _BASIS_TOL:
        raise _truncation_error(sigma, width - 1, mass)
    E = np.hstack(blocks)
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

    sqrt(lambda_max(G)), G = sum_m ((m)_k)^2 v_m v_m^H (k = order) over the walk _stein_blocks
    of the nodes (over the basis's columns, those of their conjugates, it is conj(G), of the
    same spectrum).  As v_(M+j) = T^M v_j, (M+j)_k <= C (j)_k for j >= k and
    sum_(j<k) v_j v_j^H <= I, the columns past M add at most ||T^M||_2^2 (C^2 ||G|| + F^2),
    C = binom(M+k, k), F = (M+k-1)_k; as ||T^M||_2^2 <= mass and ||G|| >= tr(G_M) / n, the
    sum stops once mass (C^2 + n F^2 / tr(G_M)) <= 2^-53, in log space, or once the mass is
    0 with every node at 0; FloatingPointError where G overflows, or the mass underflows first.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    G, M, k = 0.0, 0, order
    with np.errstate(all="ignore"):  # out of range raises below; tr(G_M) = 0 gives log(inf)
        for V, mass in _stein_blocks(sigma.points):
            f = _falling(np.arange(M, M + V.shape[1]), k)
            # where (m)_k is past the float range, a column v_m = 0 still adds 0
            D = np.multiply(V, f, out=np.zeros_like(V), where=V != 0)
            G, M = G + D @ D.conj().T, M + V.shape[1]
            if mass > _TAIL_EPS:  # the bound below is at least the mass
                continue
            if mass == 0.0 and not any(sigma.points) or not (trace := G.trace().real) < math.inf:
                break  # T_B is nilpotent, or G overflowed
            log_mass = math.log(max(mass, sigma.n * 2.0**-1074))  # a mass read as 0 is below
            log_c = 2.0 * (math.lgamma(M + k + 1) - math.lgamma(M + 1) - math.lgamma(k + 1))
            log_f = 2.0 * (math.lgamma(M + k) - math.lgamma(M)) + math.log(sigma.n / trace)
            if sum(math.exp(min(log_mass + t, 0.0)) for t in (log_c, log_f)) <= _TAIL_EPS:
                break
            if mass == 0.0:  # the walk can certify nothing past it
                raise FloatingPointError(f"the order-{k} Gram underflows (r={sigma.r:.3g})")
        H = 0.5 * (G + G.conj().T)  # finite where its trace is: |H_ij|^2 <= H_ii H_jj
        top = np.linalg.eigvalsh(H)[-1] if H.trace().real < math.inf else math.inf
    if not top < math.inf:
        raise FloatingPointError(f"the order-{k} Gram overflows (r={sigma.r:.3g})")
    return float(np.sqrt(max(top, 0.0)))


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
