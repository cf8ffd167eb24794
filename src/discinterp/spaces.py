"""Banach-space descriptors: norms, reproducing kernels, Gram matrices.

Three families are implemented:

* ``hardy(p)``          boundary L^p means, 1 <= p <= inf,
* ``seq_weighted(p, alpha)``   coefficient norms with weight (k+1)^-(alpha-1),
* ``bergman_radial(p, beta)``  area integrals against (1-|z|^2)^beta dx dy
  (no 1/pi normalisation).

The p = 2 members are Hilbert spaces with a diagonal reproducing kernel
sum_k kappa_k (lambda conj(mu))^k, and ``kernel_diagonal`` is the one place
that encodes kappa_k.  The norm sqrt(sum_k |f_k|^2 / kappa_k) and the
evaluation-functional norms follow from it directly; Gram matrices and
minimal-norm interpolants from the Stein Gram S of the Malmquist
coefficients and the lower-triangular jets of the basis on sigma, with no
kernel series in jet coordinates.  The coefficients come from one walk
over the powers of T_B (_stein_blocks), blocks of w columns seen through a
probe Q and carrying P = (T_B^(jw))^T Q, not the columns.  S sums it at
Q = I with the weights kappa_m (the identity, with no sum, where every
kappa_m is 1), and the Taylor series of any sum_k b_k e_k
(_malmquist_series) is the walk at Q = b, n^2 + n w per block.  Each is
cut at its exact dropped mass, so neither needs a truncated basis.  Every
series that fails to converge raises one ``Divergence`` (_DIVERGENCE).
_malmquist_cholesky is the one source of the Cholesky factor L of S: on
one repeated point it is that of (|lam|,)*n turned by a diagonal unitary,
and on a Moebius-invariant space (_mobius_exponent) a closed-form
Toeplitz matrix, with no walk.  FFT and quadrature serve p != 2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import Divergence, IllConditionedWarning, NotHilbert, UnsupportedSpace
from .series import (CoeffSeries, SigmaSet, _basis_jets, _compressed_shift, _toeplitz,
                     series_power)

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

# _SERIES_TOL: the width of the l^p_a dual-weight tail bracket over the sum (eval_functional_norm);
# _SERIES_BLOCK caps the first T_B-power block (_stein_blocks); both stop at _SERIES_KMAX terms.
_SERIES_TOL = 1e-14
_SERIES_BLOCK = 256
_SERIES_KMAX = 1 << 21
_DIVERGENCE = (f"kernel series did not converge within {_SERIES_KMAX} terms;"
               " a point is too close to the unit circle")
_COND_FLOOR = 1e-13
# Circle maxima: a grid of at least _CIRCLE_GRID angles, then safeguarded
# Newton steps on the squared objective at the _POLISH_PEAKS tallest grid
# peaks, until a step's predicted gain is below _NEWTON_GAIN of the value
# or its bracket is a few ulps wide.
_CIRCLE_GRID = 4096
_POLISH_PEAKS = 8
_NEWTON_GAIN = 2.0**-60
_NEWTON_MAX_STEPS = 100
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
    """kappa_k for the requested indices; requires a Hilbert-case space.

    hardy: 1; seq: (k+1)^(2 (alpha-1)); bergman: 1 / ||z^k||^2 = 1 / (pi
    B(k+1, beta+1)) = Gamma(k+beta+2) / (pi Gamma(k+1) Gamma(beta+1)),
    taken as exp(_log_gamma_ratio(k+1, beta+1) - ln Gamma(beta+1) - ln pi).
    Against exact rationals (math.comb at integer beta, products of
    (j+beta+1)/j at beta = -1/2, 3/2) the Bergman values are within 9e-15
    relative for k up to 2^21 at beta <= 3/2, and within 3.8e-14 at beta = 8:
    the rounding of a logarithm of size about (beta+1) ln k.
    """
    if not space.is_hilbert:
        raise NotHilbert(f"{space.label()} has no diagonal reproducing kernel here")
    ks = np.asarray(ks, dtype=float)
    if space.family == "hardy":
        return np.ones_like(ks)
    if space.family == "seq":
        return (ks + 1.0) ** (2.0 * (space.alpha - 1.0))
    c = space.beta + 1.0
    return np.exp(_log_gamma_ratio(ks + 1.0, c) - (math.lgamma(c) + math.log(math.pi)))


# B_2k / (2k (2k-1)), k = 1..6: the Stirling series of ln Gamma (DLMF 5.11.1)
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_FROM = 16.0


def _log_gamma_ratio(x: np.ndarray, c: float) -> np.ndarray:
    """ln(Gamma(x + c) / Gamma(x)) elementwise, for x >= 1 and c >= 0.

    Below x = _STIRLING_FROM it is math.lgamma(x + c) - math.lgamma(x).
    From there up it is the Stirling series, its leading terms (x+c-1/2)
    ln(x+c) - (x-1/2) ln x - c regrouped as (x - 1/2) log1p(c/x) + c (ln(x+c)
    - 1) so that nothing cancels, plus s(x+c) - s(x), s(z) = sum_k
    _STIRLING[k-1] z^(1-2k); the cut series errs by less than its next term,
    z^-13 / 156 < 2e-18 at z = 16.  That part is one vectorised pass.
    Against mpmath, exp of the value is within 1.2e-14 relative for x from
    1 to 2^21 + 1 and c in 0.01, 0.5, 1, 2, 3.5, and within 2.4e-14 at c = 9.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    z = np.maximum(flat, _STIRLING_FROM)  # entries below it are overwritten
    zc = z + c
    w = 1.0 / np.concatenate((zc, z))  # s(x + c) and s(x) in one Horner pass
    w2, s = w * w, _STIRLING[-1]
    for a in _STIRLING[-2::-1]:
        s = s * w2 + a
    s *= w
    out = (z - 0.5) * np.log1p(c / z) + c * (np.log(zc) - 1.0) + (s[: z.size] - s[z.size :])
    low = np.flatnonzero(flat < _STIRLING_FROM)
    out[low] = [math.lgamma(t + c) - math.lgamma(t) for t in flat[low].tolist()]
    return out.reshape(x.shape)


def _mobius_exponent(space: SpaceSpec) -> float | None:
    """e where U f = (f o b_lam)(b_lam')^(e/2) is unitary on the space for every lam, else None.

    b_lam' = -(1 - |lam|^2) / (1 - conj(lam) z)^2.  H^2 and l^2_a(1), its
    coefficient form, have e = 1 (Nikolski), and they are the spaces where
    every kappa_k is 1; L^2_a(beta) has e = beta + 2, as (1 - |b_lam(w)|^2)^beta
    dA(b_lam(w)) = |b_lam'(w)|^(beta+2) (1 - |w|^2)^beta dA(w) (Hedenmalm,
    Korenblum and Zhu, Theory of Bergman Spaces, ch. 1); l^2_a(1.5) is L^2_a(0)
    up to the factor sqrt(pi), so e = 2.  Every other l^2_a(alpha), and every
    p != 2, gets None.
    """
    if not space.is_hilbert:
        return None
    if space.family == "hardy":
        return 1.0
    if space.family == "bergman":
        return space.beta + 2.0
    return {1.0: 1.0, 1.5: 2.0}.get(space.alpha)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _hardy_norm(p: float, f: CoeffSeries) -> float:
    """H^p norm, p != 2: the p-th root of the mean of |f|^p on one FFT grid.

    At even p, |f|^p = |f^(p/2)|^2 is a trigonometric polynomial of degree
    p deg / 2, so p deg + 2 angles give its mean exactly; other p take a
    dense grid of at least 8192 angles.  The mean comes from _circle_means.
    """
    deg = f.degree
    if p == np.inf:
        return _circle_max(f)
    if p == int(p) and int(p) % 2 == 0:
        m = _next_pow2(max(64, int(p) * deg + 2))
    else:
        # |f|^p is not a trigonometric polynomial; dense grid, spectral decay
        m = _next_pow2(max(8192, 4 * deg + 4))
    moduli, powers = np.empty((2, m))
    return float(_circle_means(np.fft.fft(f.padded(m)), p, moduli, powers) ** (1.0 / p))


def _circle_means(
    spectra: np.ndarray, p: float, moduli: np.ndarray, powers: np.ndarray
) -> np.ndarray:
    """Mean of |F|^p along the last axis of ``spectra``, samples of F on circles.

    ``moduli`` and ``powers`` are real arrays of the shape of ``spectra``,
    overwritten here.  An integer p takes |F|^p by binary powering from the
    leading bit: |F| itself at p = 1, two multiplies at p = 3.  Other p
    raise |F| to p in place.
    """
    np.abs(spectra, out=moduli)
    if p != int(p):
        return np.power(moduli, p, out=moduli).sum(axis=-1) / spectra.shape[-1]
    acc = moduli
    for bit in bin(int(p))[3:]:
        acc = np.multiply(acc, acc, out=powers)
        if bit == "1":
            np.multiply(acc, moduli, out=acc)
    return acc.sum(axis=-1) / spectra.shape[-1]


def _circle_max(f: CoeffSeries) -> float:
    """Max modulus on the unit circle: coarse grid + Newton polish of |f|^2.

    The grid values come from one FFT.  The polish evaluates F = f(e^{i theta})
    and its angular derivatives F', F'' at all _POLISH_PEAKS trial angles
    at once, as one ``exp(i theta k)`` matrix against the columns c_k,
    i k c_k and -k^2 c_k.
    """
    m = _next_pow2(max(_CIRCLE_GRID, 2 * f.degree + 2))
    vals = np.abs(np.fft.fft(f.padded(m))) ** 2
    ks = np.arange(len(f))
    cols = f.coeffs[:, None] * np.stack((np.ones(len(f)), 1j * ks, -(ks**2.0)), axis=1)

    def g(thetas: np.ndarray):
        # k theta as k times the nearest grid angle, reduced exactly mod 2 pi,
        # plus k times the offset from it: a rounded k theta would put a
        # phase error of k ulp(theta) into each term
        j = np.rint(thetas * (m / (2.0 * np.pi))).astype(np.int64)
        offset = thetas - 2.0 * np.pi * j / m
        phase = (2.0 * np.pi / m) * (np.outer(j, ks) % m) + np.outer(offset, ks)
        F, F1, F2 = (np.exp(1j * phase) @ cols).T
        return (
            np.abs(F) ** 2,
            2.0 * np.real(np.conj(F) * F1),
            2.0 * (np.abs(F1) ** 2 + np.real(np.conj(F) * F2)),
        )

    # the fft grid runs clockwise
    return float(np.sqrt(_polished_max(vals, -2.0 * np.pi * np.arange(m) / m, g, _POLISH_PEAKS)))


def _polished_max(vals: np.ndarray, thetas: np.ndarray, g, top: int) -> float:
    """Max of a smooth g on the circle from its grid values, polished by Newton.

    ``g`` maps an array of angles to the arrays (g, g', g'') there.  The
    ``top`` tallest grid peaks are polished together, each inside its
    bracket [theta - h, theta + h], h the grid step.  Each step first
    shrinks the bracket to the side where g' points, then takes the Newton
    step -g'/g'' where g'' < 0 and the step lands strictly inside the
    bracket, and bisects the bracket otherwise.  A peak stops once g' = 0,
    once the predicted gain g'^2 / (2 |g''|) of its next step is below
    _NEWTON_GAIN of its value, or once its bracket is a few ulps wide.  The
    best value ever evaluated is returned, never less than the grid
    maximum.
    """
    best = float(np.max(vals))
    is_peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
    peaks = np.nonzero(is_peak)[0]
    h = 2.0 * np.pi / vals.size
    x = thetas[peaks[np.argsort(vals[peaks])][-top:]]
    lo, hi = x - h, x + h
    for _ in range(_NEWTON_MAX_STEPS):
        val, d1, d2 = g(x)
        best = float(np.max(val, initial=best))
        lo = np.where(d1 > 0.0, x, lo)
        hi = np.where(d1 > 0.0, hi, x)
        # where g'' >= 0 the divisor is a stand-in: that step is never taken
        newton = x - d1 / np.where(d2 < 0.0, d2, -1.0)
        inside = (d2 < 0.0) & (lo < newton) & (newton < hi)
        done = (
            (d1 == 0.0)
            | ((d2 < 0.0) & (d1 * d1 <= -2.0 * d2 * _NEWTON_GAIN * np.abs(val)))
            | (hi - lo <= 4.0 * np.spacing(np.abs(x) + h))
        )
        keep = ~done
        if not keep.any():
            break
        x = np.where(inside, newton, 0.5 * (lo + hi))[keep]
        lo, hi = lo[keep], hi[keep]
    return best


_BERGMAN_BLOCK = 32
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
    errors of 8e-8 to 2.3e-7.  The even-p route is within 1.5e-12 for
    every n up to 1000, p in 4, 6.

    The circles go through the FFT in tiles of _BERGMAN_BLOCK radii, so a
    tile holds 2^16 samples at 2048 angles and stays in cache.  A tile
    fills only the first w columns of one zeroed (_BERGMAN_BLOCK, m_ang)
    buffer with f_k s^k.  w is the smallest width with
    sum_{k >= w} |f_k| s_max^k <= 2^-53 max_k |f_k| s_max^k, s_max the
    tile's largest radius (_tail_cut), taken for every tile in one pass:
    the rule of _drop_negligible_tail at C = 1 on the circle of radius
    s_max, where |f_k| s_max^k is at most the mean of |f|.  The same w
    holds on every smaller circle of the tile: if |f_k| s_max^k peaks at
    k = j, then j < w, and at s <= s_max the tail-to-peak ratio is at most
    (s/s_max)^(w-j) times the one at s_max.  So the cut terms move no
    circle's L^p mean by more than 2^-53 of it, and the inner circles skip
    the terms whose s^k underflows.  The FFT writes each tile's spectra
    into a second preallocated tile, and _circle_means takes |F| and |F|^p
    in two real ones (two multiplies at p = 3); the four tiles are
    allocated once per call, so concurrent calls share nothing.
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
    # f on each sampling circle via one FFT per radius, a tile of radii at a
    # time; a tile fills only the columns below the certified width taken
    # at its last, largest radius
    ks = np.arange(deg + 1)
    starts = range(0, k_rad, _BERGMAN_BLOCK)
    s_max = radii[[min(i + _BERGMAN_BLOCK, k_rad) - 1 for i in starts], None]
    tops = np.abs(f.coeffs) * s_max**ks
    widths = [_tail_cut(top, _TAIL_EPS * float(np.max(top))) for top in tops]
    rows = np.zeros((_BERGMAN_BLOCK, m_ang), dtype=complex)
    spectra = np.empty_like(rows)
    moduli, powers = np.empty((2, *rows.shape))
    angular = np.empty(k_rad)
    for i, width in zip(starts, widths):
        block = radii[i : i + _BERGMAN_BLOCK, None]
        nb = block.shape[0]
        np.multiply(f.coeffs[:width], block ** ks[:width], out=rows[:nb, :width])
        np.fft.fft(rows[:nb], axis=1, out=spectra[:nb])
        rows[:nb, :width] = 0.0
        angular[i : i + nb] = _circle_means(spectra[:nb], p, moduli[:nb], powers[:nb]) * 2.0 * np.pi
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
    at least |f_k| s^k.  The weight (beta+1) B(k/2+1, beta+1) is Gamma(beta+2)
    over Gamma(k/2+beta+2) / Gamma(k/2+1), the latter from _log_gamma_ratio,
    within about 1e-14 of it relative.  Trailing zeros carry no mass, so a
    zero-padded f gives the same series.  Non-finite coefficients are kept
    as they are.
    """
    mags = np.abs(f.coeffs)
    if space.family == "bergman":
        c = space.beta + 1.0
        ks = np.arange(mags.size)
        mags_lower = mags * np.exp(math.lgamma(c + 1.0) - _log_gamma_ratio(ks / 2.0 + 1.0, c))
    else:
        mags_lower = mags
    kept = _tail_cut(mags, _TAIL_EPS * float(np.max(mags_lower)))
    return f if kept == mags.size else CoeffSeries(f.coeffs[:kept])


def _tail_cut(mags: np.ndarray, bound: float) -> int:
    """The smallest w >= 1 with sum_{k >= w} mags_k <= bound.

    Nothing is cut past a last entry above the bound, and a NaN or
    infinite bound cuts nothing: both give mags.size.
    """
    if not mags[-1] <= bound < np.inf:
        return mags.size
    tail = np.cumsum(mags[::-1])[::-1]  # tail[i] = sum_{k >= i} mags_k, nonincreasing
    return max(1, int(np.count_nonzero(tail > bound)))


def norm(space: SpaceSpec, f: CoeffSeries) -> float:
    """Norm of a truncated series in the given space.

    At p = 2 it is sqrt(sum_k |f_k|^2 / kappa_k) with kappa_k from
    kernel_diagonal, exact in every family.  Other p use boundary means
    (hardy), the weighted coefficient sum (seq) or _bergman_norm (the p = 2
    norm of f^(p/2) at even p, a radial quadrature otherwise).  The H^p and
    L^p_a ones first drop the trailing coefficients that cannot move the
    value by 2^-53 of it (_drop_negligible_tail), so their grids follow the
    degree of f and not that of its padding.

    The value is homogeneous in f.  f is first scaled by the power of two
    2^-e that brings max_k |f_k| into [1/2, 1), e from np.frexp, and the
    value is scaled back by 2^e with np.ldexp.  Both steps are exact, so
    norm(2^k f) == 2^k norm(f) bitwise whenever 2^k f is exact, and no
    square or p-th power on the way underflows or overflows because f is
    tiny or huge.  A zero or non-finite series is taken as it is.
    """
    top = float(np.max(np.abs(f.coeffs)))
    if not 0.0 < top < np.inf:
        return _unit_norm(space, f)
    e = int(np.frexp(top)[1])
    # ldexp on the interleaved real and imaginary parts is exact, also where
    # 2^-e itself is out of range (a subnormal max_k |f_k|)
    unit = CoeffSeries(np.ldexp(f.coeffs.view(float), -e).view(complex))
    return float(np.ldexp(_unit_norm(space, unit), e))


def _unit_norm(space: SpaceSpec, f: CoeffSeries) -> float:
    """``norm`` of f, taken as it is: max_k |f_k| in [1/2, 1), zero or non-finite."""
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
    """Norm of f |-> f(t) on the space, read at |t| < 1: every rule is radial.

    Divergence for |t| >= 1 or NaN.  One sharp rule per family, 1 - t^2
    formed as (1-t)(1+t): (1-t^2)^(-1/p) on hardy(p), and ((beta+1)/pi)^(1/p)
    (1-t^2)^(-(beta+2)/p) on bergman_radial(p, beta), attained by
    (1 - t z)^(-2(beta+2)/p), inf past the float range.  On l^p_a(alpha) the
    l^q norm, 1/p + 1/q = 1, of w_k = (k+1)^(alpha-1) t^k, peaking at k_p
    (Divergence where (k_p+1)^(alpha-1) is past the float range): the peak at
    p = 1, else the peak times the q-th root of sum_k u_k, u_k = (w_k / peak)^q,
    its terms k < K in one vectorised pass, their exponents taken in k - k_p.
    For k >= K - 1, u_(k+1)/u_k lies in [x, rho], x = t^q, rho =
    ((K+1)/K)^(q(alpha-1)) x, so for rho < 1 the tail lies between u_(K-1)
    x/(1-x) and u_(K-1) rho/(1-rho).  Its midpoint is added once that
    bracket is at most _SERIES_TOL of the sum; else K doubles, up to
    _SERIES_KMAX + 1 terms, past which it raises Divergence (at once for k_p past them).
    """
    t = abs(float(t))
    if not t < 1.0:
        raise Divergence(f"evaluation norm needs |t| < 1, got |t| = {t}")
    one_minus_t2 = (1.0 - t) * (1.0 + t)
    if space.family == "hardy":
        return float(one_minus_t2 ** (-1.0 / space.p))
    if space.family == "bergman":
        with np.errstate(over="ignore"):  # inf past the float range
            return float(((space.beta + 1.0) / np.pi) ** (1.0 / space.p)
                         * np.float64(one_minus_t2) ** (-(space.beta + 2.0) / space.p))
    a, log_t = space.alpha - 1.0, math.log(t) if t > 0.0 else -math.inf
    # log w_k is concave, its top at k* = a/(-log t) - 1: the peak is at an integer next to k*
    k_top = a / -log_t
    kp = max({max(math.floor(k_top) - j, 0) for j in (0, 1)},
             key=lambda k: a * math.log1p(k) + k * log_t)
    if not a * math.log1p(kp) < np.log(np.finfo(float).max):
        raise Divergence(f"at |t| = {t}, (k+1)^(alpha-1) at the l^p_a peak is past the float range")
    peak = (kp + 1.0) ** a * t**kp
    if space.p == 1.0 or t == 0.0:  # at t = 0 every weight but w_0 = 1 is 0
        return peak
    if kp > _SERIES_KMAX:  # the pass ends only past the peak
        raise Divergence(_DIVERGENCE)
    q = 1.0 if space.p == np.inf else space.p / (space.p - 1.0)
    qa, q_log_t = q * a, q * log_t
    x, one_minus_x = math.exp(q_log_t), -math.expm1(q_log_t)
    # 36 e-folds of x past the peak, fewer as q(alpha-1) < 1 narrows the bracket
    K = int(min(2.0 * k_top + 36.0 * min(qa, 1.0) / -q_log_t + 2.0, _SERIES_KMAX + 1))
    while True:
        d = np.arange(K, dtype=float) - kp
        u = np.exp(qa * np.log1p(d / (kp + 1.0)) + q_log_t * d)  # centred on kp: <= 1
        total = float(np.sum(u))
        c = math.expm1(qa * math.log1p(1.0 / K))  # rho = (1 + c) x
        if (one_minus_rho := one_minus_x - c * x) > 0.0:
            low = u[-1] * x / one_minus_x
            width = u[-1] * c * x / (one_minus_x * one_minus_rho)
            if width <= _SERIES_TOL * (total + low):
                return peak * float(total + low + 0.5 * width) ** (1.0 / q)
        if K > _SERIES_KMAX:
            raise Divergence(_DIVERGENCE)
        K = min(2 * K, _SERIES_KMAX + 1)


# ---------------------------------------------------------------------------
# Malmquist coefficient stream, Stein Gram, Gram matrices, minimal-norm interpolation
# ---------------------------------------------------------------------------


def _stein_blocks(points, probe=None) -> Iterator[tuple[np.ndarray, float, np.ndarray]]:
    """Blocks Q^T V_j of v_m = T_B^m conj(e(0)), each with the mass past it and P_j.

    Q is the probe, I when it is None.  Column m of E, E[k, m] the m-th coefficient of
    e_k, is conj(v_m); as sum_m v_m v_m^H = I, the columns past M carry the mass
    ||(T_B^M)^T Q||_F^2 exactly.  V_0 doubles to [V_0, T^w V_0] while its mass is above
    2^-106 ||Q||^2 (1 for Q = I) and w < _SERIES_BLOCK; block j >= 1 is P_(j-1)^T V_0,
    P_j = (T^((j+1)w))^T Q, the (T_B^M)^T Q of the columns through block j, whose norm a
    caller can read unsquared where the mass underflows.
    Real for real zeros and a real probe; Divergence past _SERIES_KMAX columns."""
    step = _compressed_shift(points)
    lam = step.diagonal()
    # e_k(0) = s_k prod_{j<k} lam_j
    e0 = np.sqrt(1.0 - np.abs(lam) ** 2) * np.cumprod(np.concatenate(([1.0], lam[:-1])))
    V = e0.conj()[:, None]
    floor = _TAIL_EPS**2 * (1.0 if probe is None else float(np.vdot(probe, probe).real))
    while True:
        P = step.T if probe is None else step.T @ probe  # (T^w)^T Q
        if np.vdot(P, P).real <= floor or V.shape[1] >= _SERIES_BLOCK:
            break
        V, step = np.hstack((V, step @ V)), step @ step
    block = V if probe is None else probe.T @ V
    for _ in range(_SERIES_KMAX // V.shape[1] + 1):
        yield block, float(np.vdot(P, P).real), P
        block, P = P.T @ V, step.T @ P
    raise Divergence(_DIVERGENCE)


def _malmquist_gram(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """S_kl = sum_m kappa_m conj(E_km) E_lm, the Stein sum sum_m kappa_m v_m v_m^H.

    The least X-norm of an f whose projection onto K_B has the coordinates
    b is sqrt(b^H S^-1 b).  Where every kappa_m is 1 (_mobius_exponent 1: H^2
    and l^2_a(1)), S = sum_m v_m v_m^H is the identity, returned exactly with no
    block summed, at any distance from the circle.  Elsewhere, past M the sum
    drops at most ||T^M||_2^2 max_j(kappa_(M+j) / kappa_j) tr S of its trace,
    the max at j = 0 for every kappa here, so it stops once ||T^M||_F^2
    kappa_M <= _TAIL_EPS kappa_0, or _stein_blocks diverges.  Real zeros keep
    real arithmetic."""
    if _mobius_exponent(space) == 1.0:
        return np.eye(sigma.n)
    kappa_0 = float(kernel_diagonal(space, 0.0))
    S, M = 0.0, 0
    points = np.array(sigma.points)
    for V, mass, _ in _stein_blocks(points if points.imag.any() else points.real):
        kappa = kernel_diagonal(space, np.arange(M, M + V.shape[1] + 1))
        S, M = S + (V * kappa[:-1]) @ V.conj().T, M + V.shape[1]
        if mass * kappa[-1] <= _TAIL_EPS * kappa_0:
            return 0.5 * (S + S.conj().T)


def _malmquist_cholesky(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """The Cholesky factor L, L L^H = S, of the Stein Gram _malmquist_gram.

    On one repeated point (lam,)*n it is Z^H L_r Z, L_r that of (r,)*n,
    r = |lam|, Z = diag(e^(i k arg lam)), as e_k of (lam,)*n is e^(i k arg lam)
    e_k(e^(-i arg lam) z) of (r,)*n: exact, with no rounding that depends on
    the phase.  With a Moebius exponent e, U f = (f o b_r)(b_r')^(e/2) is
    unitary and e_k o b_r = (1 - r z) z^k / s, so the jet at 0 of
    U sum_k b_k e_k is s^(e-1) T(1/p') b up to a unimodular factor; in a
    diagonal space the least norm with a jet at 0 is that of the jet, so
    L_r = s^(1-e) T(p') D^(1/2), with s^2 = (1-r)(1+r), T(c) the
    lower-triangular Toeplitz matrix of c, p' the first n coefficients of
    (1 - r z)^(e-1) (_binomial) and D = diag(kappa_0, .., kappa_(n-1)).  It
    walks nothing, so it holds up to the circle.  Elsewhere, and where an
    entry of that closed form leaves the float range, L is
    np.linalg.cholesky of the Stein sum, real for real zeros.
    S >= kappa_0 I, as kappa_k never decreases and sum_m v_m v_m^H = I, so
    np.linalg.LinAlgError is raised only where rounding hides that, which
    needs eps lambda_max(S) > kappa_0; its message names S and gives
    lambda_max(S) / kappa_0.  ValueError when S is not finite.
    """
    lam = sigma.single_point()
    if lam is not None and lam != abs(lam):
        turn = np.exp(1j * np.angle(lam) * np.arange(sigma.n))
        L = _malmquist_cholesky(space, SigmaSet((abs(lam),) * sigma.n))
        return turn.conj()[:, None] * L * turn
    if lam is not None and (e := _mobius_exponent(space)) is not None:
        n, r = sigma.n, abs(lam)
        s2 = np.float64((1.0 - r) * (1.0 + r))  # its powers overflow to inf, not OverflowError
        root = np.sqrt(kernel_diagonal(space, np.arange(n)))
        with np.errstate(over="ignore", invalid="ignore"):
            L = s2 ** ((1.0 - e) / 2.0) * _toeplitz(_binomial(e - 1.0, r, n)) * root
        if np.all(np.isfinite(L)):
            return L
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


def _binomial(a: float, x: float, n: int) -> np.ndarray:
    """The first n Taylor coefficients of (1 - x z)^a, exact zeros past a at an integer a >= 0."""
    k = np.arange(1.0, n)
    return np.cumprod(np.concatenate(([1.0], (k - 1.0 - a) / k * x)))


def _malmquist_series(points, b: np.ndarray) -> np.ndarray:
    """Taylor coefficients of sum_k b_k e_k on these zeros, cut at a dropped 2^-106 ||b||^2.

    Coefficient m is b^T conj(v_m), conj(v_m) the v_m of the conjugate zeros:
    the walk _stein_blocks over those with the probe b.  Real for real zeros
    and a real b; Divergence past _SERIES_KMAX coefficients."""
    floor = _TAIL_EPS**2 * float(np.vdot(b, b).real)
    pieces = []
    for piece, mass, _ in _stein_blocks(np.conj(points), b):
        pieces.append(piece)
        if mass <= floor:
            return np.concatenate(pieces)


def gram_matrix(space: SpaceSpec, sigma: SigmaSet) -> np.ndarray:
    """Gram matrix of the evaluation (and derivative) functionals on sigma.

    Entry (i, j) is the pairing of the Riesz representers of the (lam_i,
    d_i) functionals of sigma.functionals(); repeated points contribute
    derivative functionals in order of appearance.  A jet on sigma sees f
    only through the coordinates b_k = <f, e_k> of its projection onto K_B,
    as C b with C[i, k] = e_k^(d_i)(lam_i) lower triangular (_basis_jets),
    so G = C S C^H with S the Stein Gram of the Malmquist coefficients
    (_malmquist_gram).  Warns IllConditionedWarning when the
    spectrum spans more than 1e13.
    """
    if not space.is_hilbert:
        raise NotHilbert("Gram matrices need a Hilbert-case space")
    C = _basis_jets(sigma)
    G = C @ _malmquist_gram(space, sigma) @ C.conj().T
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

    ``norm`` is sqrt(a^H G^-1 a) with G = gram_matrix; ``interpolant`` is
    the minimiser's Taylor series, cut as min_norm_trace states.
    """

    norm: float
    interpolant: CoeffSeries


def _solve_lower(T: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with T x = b, T lower triangular, by forward substitution row by row.

    x_i = (b_i - T[i, :i] x[:i]) / T_ii.  Raises ValueError when T or b is
    not finite and LinAlgError at a zero diagonal entry, as
    scipy.linalg.solve_triangular does.
    """
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(b))):
        raise ValueError("array must not contain infs or NaNs")
    zero = np.flatnonzero(np.diagonal(T) == 0.0)
    if zero.size:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {zero[0]}")
    x = np.zeros(b.shape, dtype=np.result_type(T, b))
    for i in range(b.shape[0]):
        x[i] = (b[i] - T[i, :i] @ x[:i]) / T[i, i]
    return x


def min_norm_trace(space: SpaceSpec, sigma: SigmaSet, a) -> MinNormResult:
    """Minimal-norm element of the space with the prescribed jet on sigma.

    ``a`` has one target per sigma.functionals() entry: f(lam) at a point's
    first occurrence, f'(lam) at its second, and so on.  Raises ValueError
    for an ``a`` of the wrong length or with a NaN or an infinity,
    NotHilbert unless p = 2, and LinAlgError where S has no Cholesky factor
    or the basis jets overflow or underflow (_basis_jets).

    The jet of f is C b, b the coordinates of its projection onto K_B and
    C lower triangular (_basis_jets), so b = C^-1 a is one triangular
    solve, and the confluent G is never formed.  With L L^H = S the Stein
    Gram (_malmquist_cholesky), the least norm is
    sqrt(b^H S^-1 b) = ||L^-1 b||, attained at f_k = kappa_k g_k for
    g = sum_k mu_k e_k, mu = L^-H L^-1 b.  _malmquist_series cuts g where its
    dropped coefficients carry at most 2^-106 ||mu||^2 of squared mass, so
    the dropped part of f has squared norm at most that times the largest
    kappa_k past the cut; on H^2, where S = I, its norm is <= 2^-53 ||f||.
    The three triangular solves are forward substitutions (_solve_lower),
    the one with the upper-triangular L^H on its rows and columns reversed.
    On 200 seeded sets (n up to 8, r up to 0.99, 40% with a repeated node;
    H^2, l^2_a(1.5), L^2_a(-0.5)) the norms are within 1.4e-15 relative of
    those from scipy.linalg.solve_triangular, and every failure raises the
    same error.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (sigma.n,):
        raise ValueError(f"trace vector must have length {sigma.n}")
    if not np.all(np.isfinite(a)):
        raise ValueError("trace vector must not contain infs or NaNs")
    if not space.is_hilbert:
        raise NotHilbert("minimal-norm interpolation needs a Hilbert-case space")
    b = _solve_lower(_basis_jets(sigma), a)
    L = _malmquist_cholesky(space, sigma)
    y = _solve_lower(L, b)
    mu = _solve_lower(L.conj().T[::-1, ::-1], y[::-1])[::-1]
    g = _malmquist_series(sigma.points, mu)
    f = CoeffSeries(kernel_diagonal(space, np.arange(g.size)) * g).trimmed(tol=0.0)
    return MinNormResult(float(np.linalg.norm(y)), f)


def _kernel_power(alpha: float) -> int | None:
    """m = 2 alpha - 1 when it is within 1e-9 of an integer m >= 1, else None."""
    m = round(2.0 * alpha - 1.0)
    return m if abs(2.0 * alpha - 1.0 - m) < 1e-9 and m >= 1 else None


def power_inequality_check(alpha: float, f: CoeffSeries) -> tuple[float, float]:
    """Evaluate both sides of the kernel power inequality.

    Returns (lhs, rhs) with lhs = ||f^(2 alpha - 1)||^2 in the weighted
    sequence space and rhs = (||f||_2^2)^(2 alpha - 1); lhs <= rhs for
    polynomials whenever 2 alpha - 1 is a positive integer.
    """
    if (m_int := _kernel_power(alpha)) is None:
        raise ValueError("2*alpha - 1 must be a positive integer")
    lhs = norm(seq_weighted(2.0, alpha), series_power(f, m_int)) ** 2
    rhs = float(np.sum(np.abs(f.coeffs) ** 2)) ** m_int
    return lhs, rhs
