"""Banach-space descriptors: norms, reproducing kernels, Gram matrices.

Three families are implemented:

* ``hardy(p)``          boundary L^p means, 1 <= p <= inf,
* ``seq_weighted(p, alpha)``   coefficient norms with weight (k+1)^-(alpha-1),
* ``bergman_radial(p, beta)``  area integrals against (1-|z|^2)^beta dx dy
  (no 1/pi normalisation).

The p = 2 members are Hilbert spaces with a diagonal reproducing kernel
sum_k kappa_k (lambda conj(mu))^k, and ``kernel_diagonal`` is the one place
that encodes kappa_k.  Everything Hilbert-space follows from it: the norm
sqrt(sum_k |f_k|^2 / kappa_k), evaluation-functional norms, Gram matrices
and minimal-norm interpolants.  The kernel series are summed in blocks by
one loop (``_series``) with one tail rule and one ``Divergence``.  The FFT
and quadrature norms serve only p != 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

# Tail rules of _series, relative to the running total mass.  Kernel and
# Gram sums stop at 1e-14 of the total; the representer series needs 1e-26
# of its squared coefficient norm, since at 1e-14 the H^2 one-point
# interpolant at |lambda| = 0.99 loses about 1e-9 of its tail.
_SERIES_TOL = 1e-14
_REPRESENTER_TOL = 1e-26
_SERIES_BLOCK = 256
_SERIES_KMAX = 1 << 21
_COND_FLOOR = 1e-13
# Circle maxima: a grid of at least _CIRCLE_GRID angles, then _GOLDEN_ITERS
# golden-section steps on the _POLISH_PEAKS tallest grid peaks.
_CIRCLE_GRID = 4096
_POLISH_PEAKS = 8
_GOLDEN_ITERS = 60
# Non-Hilbert norms drop a trailing tail only while it moves the value by
# at most _TAIL_EPS of it (_drop_negligible_tail).
_TAIL_EPS = 2.0**-53


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
            if self.alpha is None or not (1.0 <= self.alpha < np.inf):  # NaN fails
                raise UnsupportedSpace("sequence-space weight needs a finite alpha >= 1")
        if self.family == "bergman":
            if self.beta is None or not (-1.0 < self.beta < np.inf):
                raise UnsupportedSpace("radial Bergman weight needs a finite beta > -1")

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
    from scipy.special import gammaln  # imported on first use: scipy is slow to load

    b = space.beta
    logw = np.log(np.pi) + gammaln(ks + 1.0) + gammaln(b + 1.0) - gammaln(ks + b + 2.0)
    return np.exp(-logw)


def _series(term, min_k: int, tol: float) -> list:
    """The pieces of a kernel series, summed in blocks of k = 0, 1, 2, ...

    ``term(ks)`` returns ``(piece, mass)`` with ``mass >= 0`` for one block
    of indices.  Blocks have max(_SERIES_BLOCK, min_k) indices; the sum
    stops at the first block that ends past index min_k and whose mass is
    at most ``tol`` times the total mass so far.  Raises Divergence once
    more than _SERIES_KMAX indices were summed.
    """
    block = max(_SERIES_BLOCK, min_k)
    pieces = []
    total = 0.0
    k0 = 0
    while True:
        piece, mass = term(np.arange(k0, k0 + block))
        pieces.append(piece)
        total += mass
        k0 += block
        if k0 > min_k and mass <= tol * total:
            return pieces
        if k0 > _SERIES_KMAX:
            raise Divergence(
                f"kernel series did not converge within {_SERIES_KMAX} terms;"
                " a point is too close to the unit circle"
            )


def _kernel_diag_sum(space: SpaceSpec, x: float) -> float:
    """sum_k kappa_k x^k for 0 <= x < 1."""

    def term(ks):
        block = float(np.sum(kernel_diagonal(space, ks) * x**ks))
        return block, block

    return sum(_series(term, 0, _SERIES_TOL))


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


def _circle_max(f: CoeffSeries) -> float:
    """Max modulus on the unit circle: coarse grid + golden-section polish.

    The grid values come from one FFT; the polish evaluates f at all
    _POLISH_PEAKS trial angles at once as ``exp(i theta k) @ coeffs``.
    """
    m = _next_pow2(max(_CIRCLE_GRID, 2 * f.degree + 2))
    vals = np.abs(np.fft.fft(f.padded(m)))
    ks = np.arange(len(f))

    def fn(thetas: np.ndarray) -> np.ndarray:
        return np.abs(np.exp(1j * np.outer(thetas, ks)) @ f.coeffs)

    # the fft grid runs clockwise
    return _polished_max(vals, -2.0 * np.pi * np.arange(m) / m, fn, _POLISH_PEAKS)


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


def _golden_max(fn, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Golden-section maximisation of a smooth function on each [a_j, b_j].

    All intervals advance together: ``fn`` is called once per iteration
    with one trial angle per interval, and each interval keeps the update
    of the scalar method, so its result equals a one-interval run.  Each
    of the _GOLDEN_ITERS steps shrinks every interval by 0.618.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_ITERS):
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
_BERGMAN_MIN_RADII = 128
_BERGMAN_MIN_ANGLES = 2048


@lru_cache(maxsize=32)
def _radial_rule(k_rad: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Radii s = sqrt((x+1)/2) and weights of the k_rad-point Gauss-Jacobi rule.

    The arrays are cached and returned read-only.
    """
    from scipy.special import roots_jacobi  # imported on first use: scipy is slow to load

    x, w = roots_jacobi(k_rad, beta, 0.0)
    radii = np.sqrt((x + 1.0) / 2.0)
    radii.setflags(write=False)
    w.setflags(write=False)
    return radii, w


def _bergman_norm(space: SpaceSpec, f: CoeffSeries) -> float:
    """L^p_a(beta) norm, p != 2.

    p = 2 never reaches it: ``norm`` sums the kernel diagonal exactly.  At
    even p, |f|^p = |f^(p/2)|^2, so the norm is the exact p = 2 norm of
    the power f^(p/2), raised to 2/p.  Other p use a radial Gauss-Jacobi
    rule and one FFT per circle.  The rule has
    k_rad = max(_BERGMAN_MIN_RADII, deg // 2 + 8) nodes in u = s^2, exact up
    to degree 2 k_rad - 1 >= 255, while |f|^p is not a polynomial in u.
    Measured on monomials z^n against (pi B(np/2 + 1, beta + 1))^(1/p) in
    mpmath, p in 1.5, 3 and beta in -0.5, 0, 1: the relative error is at
    most 8.1e-9 at n = 1 and 1.3e-11 at n = 2 (p = 1.5, beta = 1), where
    u^(np/2) is not smooth at u = 0; at most 1.2e-12 for n from 3 to 200;
    and up to 1.4e-11 at n = 384 and 1000 (beta = -0.5; 9.2e-12 at
    beta = 0).  Each circle has m_ang = next_pow2(max(_BERGMAN_MIN_ANGLES,
    2 deg + 2)) angles.  On a circle through a zero of f, |f|^p has a kink,
    and the trapezoidal error falls only like m_ang^-(p+1): on an
    interpolant Tf at r = 0.9 of degree 403, L^3_a(1) is off by 3.2e-11
    at 1024 angles and 7.9e-13 at 2048.  Dense random polynomials have
    many zeros near the circle, so at degree 512 the 2048 angles leave
    errors of 8e-8 to 2.3e-7.  Below degree 240 the floors of 128 radii
    and 2048 angles set the cost.  The even-p route is within 1.5e-12 for
    every n up to 1000, p in 4, 6.
    """
    if space.p == np.inf:
        raise UnsupportedSpace("sup-norm Bergman spaces are not implemented")
    p, beta, deg = space.p, space.beta, f.degree
    if p == int(p) and int(p) % 2 == 0:
        return norm(bergman_radial(2.0, beta), series_power(f, int(p) // 2)) ** (2.0 / p)
    # radial Gauss-Jacobi in u = s^2 handles the (1-u)^beta endpoint weight
    k_rad = max(_BERGMAN_MIN_RADII, deg // 2 + 8)
    radii, w = _radial_rule(k_rad, beta)
    m_ang = _next_pow2(max(_BERGMAN_MIN_ANGLES, 2 * deg + 2))
    # f on each sampling circle via one FFT per radius, a block of radii at a time
    ks = np.arange(deg + 1)
    angular = np.empty(k_rad)
    for i in range(0, k_rad, _BERGMAN_BLOCK):
        rows = radii[i : i + _BERGMAN_BLOCK, None] ** ks[None, :]
        vals = np.abs(np.fft.fft(f.coeffs[None, :] * rows, n=m_ang, axis=1))
        angular[i : i + _BERGMAN_BLOCK] = np.mean(vals**p, axis=1) * 2.0 * np.pi
    integral = 2.0 ** (-beta - 2.0) * float(np.dot(w, angular))
    return float(integral ** (1.0 / p))


def _drop_negligible_tail(space: SpaceSpec, f: CoeffSeries) -> CoeffSeries:
    """f without the longest trailing tail that moves its norm by <= 2^-53.

    A tail h moves the norm by at most ||h|| <= C ||h||_inf <= C sum_k |h_k|,
    C the constant of ||.|| <= C ||.||_inf, so a tail whose l1 mass is at
    most 2^-53 L, L a lower bound on ||f|| / C, cannot move the value by
    more than 2^-53 of it.  On H^p (C = 1), L = max_k |f_k|, since
    ||f||_p >= ||f||_1 >= |f_k|.  On L^p_a(beta), C = (pi/(beta+1))^(1/p)
    and L = max_k |f_k| (beta+1) B(k/2+1, beta+1): by Hoelder against the
    probability measure (beta+1)/pi (1-|z|^2)^beta dx dy, ||f|| / C is at
    least the mean of |f|, and the mean of |f| on the circle of radius s is
    at least |f_k| s^k.  Trailing zeros carry no mass, so a zero-padded f
    gives the same series.  Non-finite coefficients are kept as they are.
    """
    mags = np.abs(f.coeffs)
    if space.family == "bergman":
        from scipy.special import betaln  # imported on first use: scipy is slow to load

        b = space.beta
        ks = np.arange(mags.size)
        mags_lower = mags * ((b + 1.0) * np.exp(betaln(ks / 2.0 + 1.0, b + 1.0)))
    else:
        mags_lower = mags
    bound = _TAIL_EPS * float(np.max(mags_lower))
    # nothing to drop past a last coefficient above the bound; a NaN or
    # infinite bound keeps f as it is
    if not mags[-1] <= bound < np.inf:
        return f
    tail = np.cumsum(mags[::-1])[::-1]  # tail[i] = sum_{k >= i} |f_k|, nonincreasing
    return CoeffSeries(f.coeffs[: max(1, int(np.count_nonzero(tail > bound)))])


def norm(space: SpaceSpec, f: CoeffSeries) -> float:
    """Norm of a truncated series in the given space.

    At p = 2 it is sqrt(sum_k |f_k|^2 / kappa_k) with kappa_k from
    kernel_diagonal, exact in every family.  Other p use boundary means
    (hardy), the weighted coefficient sum (seq) or _bergman_norm (the p = 2
    norm of f^(p/2) at even p, a radial quadrature otherwise).  The H^p and
    L^p_a ones first drop the trailing coefficients that cannot move the
    value by 2^-53 of it (_drop_negligible_tail), so their grids follow the
    degree of f and not that of its padding.
    """
    if space.is_hilbert:
        kap = kernel_diagonal(space, np.arange(len(f)))
        return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2 / kap)))
    if space.family == "hardy":
        return _hardy_norm(space.p, _drop_negligible_tail(space, f))
    if space.family == "seq":
        k = np.arange(len(f), dtype=float)
        weights = (k + 1.0) ** (-(space.alpha - 1.0))
        terms = np.abs(f.coeffs) * weights
        if space.p == np.inf:
            return float(np.max(terms))
        return float(np.sum(terms**space.p) ** (1.0 / space.p))
    return _bergman_norm(space, _drop_negligible_tail(space, f))


# ---------------------------------------------------------------------------
# evaluation functionals
# ---------------------------------------------------------------------------


def eval_functional_norm(space: SpaceSpec, t: float) -> float:
    """Norm of f |-> f(t) on the space, 0 <= t < 1.

    Hilbert cases are sqrt(sum_k kappa_k t^(2k)); hardy(p) uses the
    classical sharp value (1-t^2)^(-1/p).  On l^p_a(alpha) it is the l^q
    norm, 1/p + 1/q = 1, of the dual weight (k+1)^(alpha-1) t^k: the peak
    weight times a _series sum, plus its geometric tail, of the q-th powers
    of the weights over the peak for finite q (q = 1 at p = inf), and the
    peak itself at p = 1.
    Bergman with p != 2 is out.
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
        alpha = space.alpha
        # the weights rise, peak at k* = (alpha-1)/(-log t) - 1, then decay;
        # log w_k is concave, so the peak is at an integer neighbour of k*
        k_top = (alpha - 1.0) / -np.log(t) if t > 0.0 else 0.0
        ks = np.maximum(np.floor(k_top - 1.0) + np.array([0.0, 1.0]), 0.0)
        peak = float(np.max((ks + 1.0) ** (alpha - 1.0) * t**ks))
        if space.p == 1.0:
            return peak
        q = 1.0 if space.p == np.inf else space.p / (space.p - 1.0)

        def term(ks):
            # weights over the peak, so their q-th powers stay <= 1: near
            # p = 1 the peak weight to the power q alone overflows
            block = float(np.sum(((ks + 1.0) ** (alpha - 1.0) * t**ks / peak) ** q))
            return block, block

        # min_k past the peak: a first block that underflows to 0 must not
        # end the sum.  Capped one past _SERIES_KMAX, a peak out of reach
        # costs one bounded block and raises Divergence.
        min_k = int(min(np.ceil(k_top), _SERIES_KMAX + 1))
        pieces = _series(term, min_k, _SERIES_TOL)
        # past the peak the blocks decay about geometrically: add the tail
        # after the last block, at the ratio r of the last two
        r = pieces[-1] / pieces[-2]
        return peak * float(sum(pieces) + pieces[-1] * r / (1.0 - r)) ** (1.0 / q)
    raise UnsupportedSpace("evaluation norm for Bergman p != 2 is not implemented")


# ---------------------------------------------------------------------------
# Gram matrices and minimal-norm interpolation
# ---------------------------------------------------------------------------


def gram_matrix(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """Gram matrix of the evaluation (and derivative) functionals on sigma.

    Entry (i, j) is sum_k kappa_k (k)_{d_i} (k)_{d_j}
    lam_i^(k-d_i) conj(lam_j)^(k-d_j), the pairing of the Riesz
    representers; repeated points contribute derivative functionals in
    order of appearance.  The series is summed by _series until a block's
    trace is below _SERIES_TOL of the total trace.  Warns
    IllConditionedWarning when the spectrum spans more than 1e13.
    """
    if not space.is_hilbert:
        raise NotHilbert("Gram matrices need a Hilbert-case space")
    funcs = sigma.functionals()
    max_d = max(d for _, d in funcs)

    def term(ks):
        P = _functional_block(funcs, ks)
        piece = (P * kernel_diagonal(space, ks)) @ P.conj().T
        return piece, float(np.trace(piece).real)

    G = sum(_series(term, 2 * max_d + 2, _SERIES_TOL))
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
    """Result of min_norm_trace: the least norm with jet a, and its minimiser.

    ``norm`` is sqrt(a^H G^-1 a); ``interpolant`` is the minimiser's Taylor
    series, cut where a block carries under _REPRESENTER_TOL of its squared norm.
    """

    norm: float
    interpolant: CoeffSeries


def _inverse_factor(G: np.ndarray) -> np.ndarray:
    """R with R^H R = G^-1 for a Hermitian Gram matrix G.

    Normally R = L^-1 with G = L L^H the Cholesky factorisation.  When G
    is not numerically positive definite, R = diag(w^-1/2) V^H over the
    eigenpairs (w, V) of G with w above _COND_FLOOR times the largest, so
    R^H R is the pseudo-inverse that drops the near-null directions.
    Raises ValueError when G holds a NaN or an infinity.
    """
    if not np.all(np.isfinite(G)):
        # np.linalg.cholesky would return NaNs instead of raising
        raise ValueError("array must not contain infs or NaNs")
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(G)
        keep = w > _COND_FLOOR * max(w[-1], 0.0)
        return V[:, keep].conj().T / np.sqrt(w[keep])[:, None]
    # L^T is upper triangular, so the LU inside inv exchanges no rows and the
    # inverse is a back substitution; inv(L) pivots and fills the upper part
    return np.linalg.inv(L.T).T


def min_norm_trace(space: SpaceSpec, sigma: SigmaSet, a) -> MinNormResult:
    """Minimal-norm element of the space with the prescribed jet on sigma.

    ``a`` has one target per sigma.functionals() entry: f(lam) at a point's
    first occurrence, f'(lam) at its second, and so on.  Raises NotHilbert
    unless p = 2, and ValueError for an ``a`` of the wrong length.

    Solves G c = a as c = R^H (R a) with R^H R = G^-1 (_inverse_factor) and
    returns ||R a|| = sqrt(a^H G^-1 a) together with the truncated
    representer combination sum_i c_i k_i, whose coefficients are
    kappa_k (P^H c)_k.  _series sums them until a block's squared norm is
    below _REPRESENTER_TOL of the total.
    """
    a = np.asarray(a, dtype=complex)
    funcs = sigma.functionals()
    if a.shape != (len(funcs),):
        raise ValueError(f"trace vector must have length {len(funcs)}")
    R = _inverse_factor(gram_matrix(space, sigma))
    Ra = R @ a
    c = R.conj().T @ Ra
    value = float(np.linalg.norm(Ra))
    max_d = max(d for _, d in funcs)

    def term(ks):
        piece = kernel_diagonal(space, ks) * (_functional_block(funcs, ks).conj().T @ c)
        return piece, float(np.vdot(piece, piece).real)

    coeffs = _series(term, 2 * max_d + 2, _REPRESENTER_TOL)
    interpolant = CoeffSeries(np.concatenate(coeffs)).trimmed(tol=0.0)
    return MinNormResult(value, interpolant)


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
