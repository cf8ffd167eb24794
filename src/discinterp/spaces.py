"""Banach-space descriptors: norms, reproducing kernels, Gram matrices.

Three families are implemented:

* ``hardy(p)``          boundary L^p means, 1 <= p <= inf,
* ``seq_weighted(p, alpha)``   coefficient norms with weight (k+1)^-(alpha-1),
* ``bergman_radial(p, beta)``  area integrals against (1-|z|^2)^beta dx dy
  (no 1/pi normalisation).

The p = 2 members are Hilbert spaces with a diagonal reproducing kernel
sum_k kappa_k (lambda conj(mu))^k; everything kernel-based (evaluation
functional norms, Gram matrices, minimal-norm interpolants) runs off the
kappa_k diagonal, summed in blocks to a fixed tail tolerance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.special import gammaln, roots_jacobi

from .errors import (
    Divergence,
    IllConditionedWarning,
    NotHilbert,
    UnsupportedSpace,
)
from .series import CoeffSeries, SigmaSet, _functional_block, series_power

__all__ = [
    "SpaceSpec",
    "hardy",
    "seq_weighted",
    "bergman_radial",
    "norm",
    "eval_functional_norm",
    "kernel_diagonal",
    "gram_matrix",
    "MinNormResult",
    "min_norm_trace",
    "power_inequality_check",
]

_SERIES_TOL = 1e-14
_SERIES_BLOCK = 256
_SERIES_KMAX = 1 << 21
_COND_FLOOR = 1e-13


def _next_pow2(n: int) -> int:
    m = 1
    while m < n:
        m <<= 1
    return m


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of one Banach space of analytic functions on the disc."""

    family: str  # "hardy" | "seq" | "bergman"
    p: float
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.family not in ("hardy", "seq", "bergman"):
            raise UnsupportedSpace(f"unknown family {self.family!r}")
        if not (1.0 <= self.p):
            raise UnsupportedSpace("p must satisfy 1 <= p <= inf")
        if self.family == "seq":
            if self.alpha is None or self.alpha < 1.0:
                raise UnsupportedSpace("sequence-space weight needs alpha >= 1")
        if self.family == "bergman":
            if self.beta is None or self.beta <= -1.0:
                raise UnsupportedSpace("radial Bergman weight needs beta > -1")

    @property
    def is_hilbert(self) -> bool:
        return self.p == 2

    def label(self) -> str:
        if self.family == "hardy":
            return f"H^{self.p:g}"
        if self.family == "seq":
            return f"l^{self.p:g}_a(alpha={self.alpha:g})"
        return f"L^{self.p:g}_a(beta={self.beta:g})"


def hardy(p: float) -> SpaceSpec:
    return SpaceSpec("hardy", float(p))


def seq_weighted(p: float, alpha: float) -> SpaceSpec:
    return SpaceSpec("seq", float(p), alpha=float(alpha))


def bergman_radial(p: float, beta: float) -> SpaceSpec:
    return SpaceSpec("bergman", float(p), beta=float(beta))


# ---------------------------------------------------------------------------
# kernel diagonal kappa_k (Hilbert cases): ||f||^2 = sum |f_k|^2 / kappa_k
# ---------------------------------------------------------------------------


def kernel_diagonal(space: SpaceSpec, ks: np.ndarray) -> np.ndarray:
    """kappa_k for the requested indices; requires a Hilbert-case space."""
    if not space.is_hilbert:
        raise NotHilbert(f"{space.label()} has no diagonal reproducing kernel here")
    ks = np.asarray(ks, dtype=float)
    if space.family == "hardy":
        return np.ones_like(ks)
    if space.family == "seq":
        return (ks + 1.0) ** (2.0 * (space.alpha - 1.0))
    # bergman: ||z^k||^2 = pi * B(k+1, beta+1)
    b = space.beta
    logw = np.log(np.pi) + gammaln(ks + 1.0) + gammaln(b + 1.0) - gammaln(ks + b + 2.0)
    return np.exp(-logw)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _hardy_norm(p: float, f: CoeffSeries) -> float:
    deg = f.degree
    if p == np.inf:
        return _circle_max(f)
    if p == int(p) and int(p) % 2 == 0:
        m = _next_pow2(max(64, int(p) * deg + 2))
    else:
        # |f|^p is not a trigonometric polynomial; dense grid, spectral decay
        m = _next_pow2(max(8192, 4 * deg + 4))
    vals = np.abs(np.fft.fft(f.padded(m)))
    return float(np.mean(vals**p) ** (1.0 / p))


def _circle_max(f: CoeffSeries, coarse: int = 4096, top: int = 8) -> float:
    """Max modulus on the unit circle: coarse grid + golden-section polish.

    The grid values come from one FFT; the polish evaluates f at all
    ``top`` trial angles at once as ``exp(i theta k) @ coeffs``.
    """
    m = _next_pow2(max(coarse, 2 * f.degree + 2))
    vals = np.abs(np.fft.fft(f.padded(m)))
    ks = np.arange(len(f))

    def fn(thetas: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(1j * np.outer(thetas, ks)) @ f.coeffs)

    # the fft grid runs clockwise
    return _polished_max(vals, -2.0 * np.pi * np.arange(m) / m, fn, top)


def _polished_max(vals: np.ndarray, thetas: np.ndarray, fn, top: int) -> float:
    """Max of fn from its grid values, polished by golden section at the top peaks.

    ``fn`` maps an array of angles to an array of values; the ``top``
    tallest grid peaks are polished together on ``[theta - h, theta + h]``.
    """
    best = float(np.max(vals))
    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.nonzero(is_peak)[0]
    h = 2.0 * np.pi / vals.size
    centres = thetas[peaks[np.argsort(vals[peaks])][-top:]]
    return float(np.max(_golden_max(fn, centres - h, centres + h), initial=best))


def _golden_max(fn, a: np.ndarray, b: np.ndarray, iters: int = 60) -> np.ndarray:
    """Golden-section maximisation of a smooth function on each [a_j, b_j].

    All intervals advance together: ``fn`` is called once per iteration
    with one trial angle per interval, and each interval keeps the update
    of the scalar method, so its result equals a one-interval run.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        up = fc < fd
        # up: [a, b] -> [c, b], old d becomes c; else [a, b] -> [a, d], old c becomes d
        a = np.where(up, c, a)
        b = np.where(up, b, d)
        keep = np.where(up, d, c)
        keep_f = np.where(up, fd, fc)
        new = np.where(up, a + invphi * (b - a), b - invphi * (b - a))
        new_f = fn(new)
        c, fc = np.where(up, keep, new), np.where(up, keep_f, new_f)
        d, fd = np.where(up, new, keep), np.where(up, new_f, keep_f)
    return np.maximum(fc, fd)


_BERGMAN_BLOCK = 64


@lru_cache(maxsize=32)
def _radial_rule(k_rad: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Radii s = sqrt((x+1)/2) and weights of the k_rad-point Gauss-Jacobi rule.

    The arrays are cached and returned read-only.
    """
    x, w = roots_jacobi(k_rad, beta, 0.0)
    radii = np.sqrt((x + 1.0) / 2.0)
    radii.setflags(write=False)
    w.setflags(write=False)
    return radii, w


def _bergman_norm(space: SpaceSpec, f: CoeffSeries) -> float:
    """L^p_a(beta) norm by a radial Gauss-Jacobi rule and one FFT per circle.

    The rule has k_rad = max(24, deg // 2 + 8) nodes in u = s^2, exact up to
    degree about deg + 15, while |f|^p has degree p deg / 2 in u for even p
    and is not a polynomial otherwise.  Measured on monomials z^n against
    (pi B(np/2 + 1, beta + 1))^(1/p), p in 1.5, 3, 4: the relative error is
    about 1e-14 at n = 40 and about 1e-11 from n of about 384 on at
    beta = -0.5 (at most 1.4e-11 up to n = 1000); at beta = 0 it is below
    1.2e-12 up to n = 384 and 9e-12 at n = 1000.
    """
    if space.p == np.inf:
        raise UnsupportedSpace("sup-norm Bergman spaces are not implemented")
    p, beta, deg = space.p, space.beta, f.degree
    # radial Gauss-Jacobi in u = s^2 handles the (1-u)^beta endpoint weight
    k_rad = max(24, deg // 2 + 8)
    radii, w = _radial_rule(k_rad, beta)
    if p == int(p) and int(p) % 2 == 0:
        m_ang = _next_pow2(max(64, int(p) * deg // 2 + 2))
    else:
        m_ang = _next_pow2(max(1024, 2 * deg + 2))
    # f on each sampling circle via one FFT per radius, a block of radii at a time
    ks = np.arange(deg + 1)
    angular = np.empty(k_rad)
    for i in range(0, k_rad, _BERGMAN_BLOCK):
        rows = radii[i : i + _BERGMAN_BLOCK, None] ** ks[None, :]
        vals = np.abs(np.fft.fft(f.coeffs[None, :] * rows, n=m_ang, axis=1))
        angular[i : i + _BERGMAN_BLOCK] = np.mean(vals**p, axis=1) * 2.0 * np.pi
    integral = 2.0 ** (-beta - 2.0) * float(np.dot(w, angular))
    return float(integral ** (1.0 / p))


def norm(space: SpaceSpec, f: CoeffSeries) -> float:
    """Norm of a truncated series in the given space."""
    if space.family == "hardy":
        return _hardy_norm(space.p, f)
    if space.family == "seq":
        k = np.arange(len(f), dtype=float)
        weights = (k + 1.0) ** (-(space.alpha - 1.0))
        terms = np.abs(f.coeffs) * weights
        if space.p == np.inf:
            return float(np.max(terms))
        return float(np.sum(terms**space.p) ** (1.0 / space.p))
    return _bergman_norm(space, f)


# ---------------------------------------------------------------------------
# evaluation functionals
# ---------------------------------------------------------------------------


def eval_functional_norm(space: SpaceSpec, t: float) -> float:
    """Norm of f |-> f(t) on the space, 0 <= t < 1.

    Hilbert cases sum the kernel diagonal; hardy(p) uses the classical
    sharp value (1-t^2)^(-1/p); general sequence spaces use the Hoelder
    dual of the weighted coefficient norm.  Bergman with p != 2 is out.
    """
    t = float(t)
    if t < 0.0 or t >= 1.0:
        raise Divergence(f"evaluation norm needs 0 <= t < 1, got {t}")
    if space.family == "hardy":
        if space.p == np.inf:
            return 1.0
        return float((1.0 - t * t) ** (-1.0 / space.p))
    if space.is_hilbert:
        return float(np.sqrt(_kernel_diag_sum(space, t * t)))
    if space.family == "seq":
        q = np.inf if space.p == 1.0 else space.p / (space.p - 1.0)
        return float(_weighted_power_sum(space.alpha, t, q))
    raise UnsupportedSpace("evaluation norm for Bergman p != 2 is not implemented")


def _kernel_diag_sum(space: SpaceSpec, x: float) -> float:
    """sum_k kappa_k x^k for 0 <= x < 1, summed in blocks to _SERIES_TOL."""
    total = 0.0
    k0 = 0
    while True:
        ks = np.arange(k0, k0 + _SERIES_BLOCK, dtype=float)
        block = float(np.sum(kernel_diagonal(space, ks) * x**ks))
        total += block
        k0 += _SERIES_BLOCK
        if block <= _SERIES_TOL * max(total, 1.0) or x == 0.0:
            return total
        if k0 > _SERIES_KMAX:
            raise Divergence("kernel diagonal sum did not converge")


def _weighted_power_sum(alpha: float, t: float, q: float) -> float:
    """l^q norm of ((k+1)^(alpha-1) t^k)_k, q possibly inf."""
    if t == 0.0:
        return 1.0
    if q == np.inf:
        # terms rise then decay; peak index (alpha-1)/(-log t)
        k_peak = int(np.ceil((alpha - 1.0) / (-np.log(t)))) + 2
        ks = np.arange(0, k_peak + 2, dtype=float)
        return float(np.max((ks + 1.0) ** (alpha - 1.0) * t**ks))
    total = 0.0
    k0 = 0
    while True:
        ks = np.arange(k0, k0 + _SERIES_BLOCK, dtype=float)
        block = float(np.sum(((ks + 1.0) ** (alpha - 1.0) * t**ks) ** q))
        total += block
        k0 += _SERIES_BLOCK
        if block <= _SERIES_TOL * max(total, 1.0):
            return total ** (1.0 / q)
        if k0 > _SERIES_KMAX:
            raise Divergence("dual weight sum did not converge")


# ---------------------------------------------------------------------------
# Gram matrices and minimal-norm interpolation
# ---------------------------------------------------------------------------


def gram_matrix(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """Gram matrix of the evaluation (and derivative) functionals on sigma.

    Entry (i, j) is sum_k kappa_k (k)_{d_i} (k)_{d_j}
    lam_i^(k-d_i) conj(lam_j)^(k-d_j), the pairing of the Riesz
    representers; repeated points contribute derivative functionals in
    order of appearance.  Warns IllConditionedWarning when the spectrum
    spans more than 1e13.
    """
    if not space.is_hilbert:
        raise NotHilbert("Gram matrices need a Hilbert-case space")
    funcs = sigma.functionals()
    n = len(funcs)
    G = np.zeros((n, n), dtype=complex)
    max_d = max(d for _, d in funcs)
    k0 = 0
    block = max(_SERIES_BLOCK, 2 * max_d + 2)
    while True:
        ks = np.arange(k0, k0 + block)
        kap = kernel_diagonal(space, ks)
        P = _functional_block(funcs, ks)
        piece = (P * kap) @ P.conj().T
        G += piece
        contrib = float(np.linalg.norm(piece))
        k0 += block
        if k0 > 2 * max_d + 2 and contrib <= _SERIES_TOL * max(np.linalg.norm(G), 1.0):
            break
        if k0 > _SERIES_KMAX:
            raise Divergence("Gram series did not converge (r too close to 1?)")
    G = 0.5 * (G + G.conj().T)
    eig = np.linalg.eigvalsh(G)
    if eig[0] < _COND_FLOOR * eig[-1]:
        warnings.warn(
            f"Gram matrix nearly singular: eig range [{eig[0]:.3e}, {eig[-1]:.3e}]",
            IllConditionedWarning,
            stacklevel=2,
        )
    return G


@dataclass(frozen=True)
class MinNormResult:
    norm: float
    interpolant: CoeffSeries
    multipliers: np.ndarray


def _inverse_factor(G: np.ndarray) -> np.ndarray:
    """R with R^H R = G^-1 for a Hermitian Gram matrix G.

    Normally R = L^-1 with G = L L^H the Cholesky factorisation.  When G is
    not numerically positive definite, R = diag(w^-1/2) V^H over the
    eigenpairs (w, V) of G with w above _COND_FLOOR times the largest, so
    R^H R is the pseudo-inverse that drops the near-null directions.
    """
    try:
        L = cholesky(G, lower=True)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(G)
        keep = w > _COND_FLOOR * max(w[-1], 0.0)
        return V[:, keep].conj().T / np.sqrt(w[keep])[:, None]
    return solve_triangular(L, np.eye(G.shape[0]), lower=True)


def min_norm_trace(space: SpaceSpec, sigma: SigmaSet, a) -> MinNormResult:
    """Minimal-norm element of the space with the prescribed jet on sigma.

    Solves G c = a as c = R^H (R a) with R^H R = G^-1 (_inverse_factor) and
    returns ||R a|| = sqrt(a^H G^-1 a) together with the truncated
    representer combination sum_i c_i k_i.
    """
    a = np.asarray(a, dtype=complex)
    funcs = sigma.functionals()
    if a.shape != (len(funcs),):
        raise ValueError(f"trace vector must have length {len(funcs)}")
    R = _inverse_factor(gram_matrix(space, sigma))
    Ra = R @ a
    c = R.conj().T @ Ra
    value = float(np.linalg.norm(Ra))

    coeffs: list[np.ndarray] = []
    max_d = max(d for _, d in funcs)
    total = 0.0
    k0 = 0
    block = max(_SERIES_BLOCK, 2 * max_d + 2)
    while True:
        ks = np.arange(k0, k0 + block)
        kap = kernel_diagonal(space, ks)
        P = _functional_block(funcs, ks)
        piece = kap * (P.conj().T @ c)
        coeffs.append(piece)
        contrib = float(np.linalg.norm(piece))
        total = float(np.hypot(total, contrib))
        k0 += block
        if k0 > 2 * max_d + 2 and contrib <= 1e-13 * max(total, 1e-300):
            break
        if k0 > _SERIES_KMAX:
            raise Divergence("representer series did not converge")
    interpolant = CoeffSeries(np.concatenate(coeffs)).trimmed(tol=0.0)
    return MinNormResult(value, interpolant, c)


def power_inequality_check(alpha: float, f: CoeffSeries) -> tuple[float, float]:
    """Evaluate both sides of the kernel power inequality.

    Returns (lhs, rhs) with lhs = ||f^(2 alpha - 1)||^2 in the weighted
    sequence space and rhs = (||f||_2^2)^(2 alpha - 1); lhs <= rhs for
    polynomials whenever 2 alpha - 1 is a positive integer.
    """
    m = 2.0 * alpha - 1.0
    m_int = int(round(m))
    if abs(m - m_int) > 1e-9 or m_int < 1:
        raise ValueError("2*alpha - 1 must be a positive integer")
    lhs = norm(seq_weighted(2.0, alpha), series_power(f, m_int)) ** 2
    rhs = float(np.sum(np.abs(f.coeffs) ** 2)) ** m_int
    return lhs, rhs
