"""Truncated Taylor series on the unit disc, node multisets and exact basis jets.

A series is its coefficient vector c_0..c_N; all operations are pure and
return new objects.  The Malmquist basis functions e_k are read here in
closed form: values and derivatives off the nodes, and exact jets on them
(_basis_jets, for the Gram matrix and the least-norm interpolant).
compose_with_blaschke is a reference composition that no library path calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import PoleOnDomain

__all__ = [
    "CoeffSeries",
    "SigmaSet",
    "eval_series",
    "compose_with_blaschke",
    "hadamard_product",
    "series_power",
    "dirichlet_kernel",
    "fejer_kernel",
    "derivative",
    "jet_values",
]

class CoeffSeries:
    """Finite Taylor series sum_k c_k z^k with immutable coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[complex]):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        arr = arr.copy()
        arr.setflags(write=False)
        self.coeffs = arr

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def __len__(self) -> int:
        return self.coeffs.size

    def __call__(self, z):
        return eval_series(self, z)

    def derivative(self) -> "CoeffSeries":
        return derivative(self)

    def trimmed(self, tol: float = 0.0) -> "CoeffSeries":
        """Drop trailing coefficients of magnitude <= tol (keeps c_0)."""
        mags = np.abs(self.coeffs)
        keep = np.nonzero(mags > tol)[0]
        last = keep[-1] if keep.size else 0
        return CoeffSeries(self.coeffs[: last + 1])

    def padded(self, length: int) -> np.ndarray:
        out = np.zeros(length, dtype=complex)
        out[: min(length, self.coeffs.size)] = self.coeffs[:length]
        return out

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6)
        return f"CoeffSeries(degree={self.degree}, coeffs={head}...)"


def eval_series(f: CoeffSeries, z) -> complex | np.ndarray:
    """Evaluate f at z (scalar or array) by Horner summation."""
    zs = np.asarray(z, dtype=complex)
    acc = np.zeros_like(zs)
    for c in f.coeffs[::-1]:
        acc = acc * zs + c
    if np.isscalar(z) or zs.ndim == 0:
        return complex(acc)
    return acc


def _mul_linear(coeffs: np.ndarray, lam: complex) -> np.ndarray:
    """Multiply a coefficient vector by (lam - z), same length."""
    out = lam * coeffs.astype(complex)
    out[1:] -= coeffs[:-1]
    return out


def _div_geometric(coeffs: np.ndarray, a: complex) -> np.ndarray:
    """Multiply a coefficient vector by 1 / (1 - a z), same length."""
    out = coeffs.astype(complex)
    # 1 / (1 - a z) = prod_j (1 + (a z)^(2^j)); each factor is one shifted add
    step, power = 1, complex(a)
    while step < out.size and power != 0:
        out[step:] += power * out[:-step]
        step, power = 2 * step, power * power
    return out


def compose_with_blaschke(f: CoeffSeries, lam: complex, n_out: int) -> CoeffSeries:
    """Taylor coefficients of f(b_lam(z)) up to degree n_out.

    With b_lam(z) = (lam - z) / (1 - conj(lam) z), Horner's rule in b_lam,
    acc <- acc * b_lam + f_j from the top coefficient down, on a vector of
    n_out + 1 coefficients; each product is one linear factor and one
    geometric division.  Truncating each product loses nothing below degree
    n_out + 1, so the result is exact on its prefix up to rounding.  No
    library path composes (the witness transplant is read from its
    Malmquist coordinates, bounds.witness_lower_bound); this is kept as the
    reference composition that the tests compare against and that the
    benchmark tracer names.
    """
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise PoleOnDomain(f"Blaschke zero |{lam}| >= 1")
    if n_out < 0:
        raise ValueError("n_out must be nonnegative")
    acc = np.zeros(int(n_out) + 1, dtype=complex)
    acc[0] = f.coeffs[-1]
    for c in f.coeffs[-2::-1]:
        acc = _div_geometric(_mul_linear(acc, lam), np.conj(lam))
        acc[0] += c
    return CoeffSeries(acc)


def hadamard_product(f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """Coefficientwise product; length is the shorter of the two."""
    n = min(len(f), len(g))
    return CoeffSeries(f.coeffs[:n] * g.coeffs[:n])


def series_power(f: CoeffSeries, m: int) -> CoeffSeries:
    """f**m by repeated squaring on coefficient vectors."""
    if m < 0:
        raise ValueError("exponent must be nonnegative")
    result = np.array([1.0 + 0j])
    base = f.coeffs
    e = m
    while e > 0:
        if e & 1:
            result = np.convolve(result, base)
        e >>= 1
        if e:
            base = np.convolve(base, base)
    return CoeffSeries(result)


def dirichlet_kernel(n: int) -> CoeffSeries:
    """1 + z + ... + z^(n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CoeffSeries(np.ones(n))


def fejer_kernel(n: int) -> CoeffSeries:
    """Analytic-part Fejer kernel: coefficients (1 - k/n) for k < n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return CoeffSeries(1.0 - np.arange(n) / n)


def derivative(f: CoeffSeries) -> CoeffSeries:
    """Coefficients of f', one degree lower."""
    if len(f) == 1:
        return CoeffSeries([0.0])
    ks = np.arange(1, len(f))
    return CoeffSeries(f.coeffs[1:] * ks)


@dataclass(frozen=True)
class SigmaSet:
    """Finite multiset of interpolation points in the open unit disc.

    The ordering is the caller's and is preserved; repeated points are
    interpreted as derivative (jet) conditions in order of appearance.
    """

    points: tuple[complex, ...]

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        if not pts:
            raise ValueError("sigma must contain at least one point")
        for p in pts:
            if not abs(p) < 1.0:  # also catches NaN
                raise PoleOnDomain(f"sigma point {p} is not in the open unit disc")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def r(self) -> float:
        return max(abs(p) for p in self.points)

    def functionals(self) -> tuple[tuple[complex, int], ...]:
        """(point, derivative order) for each entry, in input order."""
        seen: dict[complex, int] = {}
        out = []
        for p in self.points:
            d = seen.get(p, 0)
            out.append((p, d))
            seen[p] = d + 1
        return tuple(out)

    def groups(self) -> tuple[tuple[complex, int], ...]:
        """(point, multiplicity) in first-occurrence order."""
        mult: dict[complex, int] = {}
        order = []
        for p in self.points:
            if p not in mult:
                order.append(p)
            mult[p] = mult.get(p, 0) + 1
        return tuple((p, mult[p]) for p in order)

    def min_separation(self) -> float:
        pts = self.points
        if len(pts) == 1:
            return np.inf
        return min(
            abs(pts[i] - pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts))
        )

    def single_point(self) -> complex | None:
        """The common point if all entries coincide exactly, else None."""
        first = self.points[0]
        return first if all(p == first for p in self.points) else None

    def rotated(self, theta: float) -> "SigmaSet":
        w = np.exp(1j * theta)
        return SigmaSet(tuple(w * p for p in self.points))


def _basis_values(sigma: SigmaSet, z) -> np.ndarray:
    """e_k(z) from the rational formula, for every k; shape (n, len(z))."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty((sigma.n, zs.size), dtype=complex)
    running = np.ones_like(zs)
    for k, lam in enumerate(sigma.points):
        cl = np.conj(lam)
        out[k] = np.sqrt(1.0 - abs(lam) ** 2) / (1.0 - cl * zs) * running
        running = running * (lam - zs) / (1.0 - cl * zs)
    return out


def _basis_derivatives(sigma: SigmaSet, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e_k(z), e_k'(z) and e_k''(z) in closed form, each of shape (n, len(z)).

    With t_j = conj(lam_j) / (1 - conj(lam_j) z) and u_j = 1 / (lam_j - z),
    the logarithmic derivative of e_k is L_k = t_k + sum_{j<k} (t_j - u_j),
    its derivative is L_k' = t_k^2 + sum_{j<k} (t_j^2 - u_j^2), and
    e_k' = e_k L_k, e_k'' = e_k (L_k^2 + L_k').  Needs z off the nodes.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    lam = np.asarray(sigma.points, dtype=complex)[:, None]
    t = np.conj(lam) / (1.0 - np.conj(lam) * zs)
    u = 1.0 / (lam - zs)
    a, a2 = t - u, t * t - u * u
    # the sums over j < k are cumulative sums less their own term
    L = t + np.cumsum(a, axis=0) - a
    dL = t * t + np.cumsum(a2, axis=0) - a2
    e = _basis_values(sigma, zs)
    return e, e * L, e * (L * L + dL)


def _falling(ks: np.ndarray, d: int) -> np.ndarray:
    """Falling factorial (k)_d = k (k-1) ... (k-d+1)."""
    out = np.ones_like(ks, dtype=float)
    for i in range(d):
        out *= ks - i
    return out


def _basis_jets(sigma: SigmaSet) -> np.ndarray:
    """C[i, k] = e_k^(d_i)(lam_i) for the (lam_i, d_i) of sigma.functionals().

    C is lower triangular: e_k vanishes to order d_i + 1 at lam_i for k > i.
    At a node mu of multiplicity m, 1 / (1 - conj(lam) (mu + h)) is
    1 / (1 - conj(lam) mu) times 1 / (1 - a h), a = conj(lam) / (1 -
    conj(lam) mu), so each factor of e_k(mu + h) is at most a linear term
    times a geometric series, and the first m Taylor coefficients in h come
    exactly from _mul_linear and _div_geometric on m-vectors; the d-th
    derivative is d! times the d-th of them.
    """
    C = np.zeros((sigma.n, sigma.n), dtype=complex)
    for mu, m in sigma.groups():
        rows = [i for i, p in enumerate(sigma.points) if p == mu]  # d = 0, 1, .., m - 1
        fact = np.cumprod(np.maximum(np.arange(m), 1.0))  # d!
        running = np.eye(1, m, dtype=complex)[0]  # prod_{j<k} b_lam_j(mu + h)
        for k, lam in enumerate(sigma.points):
            den = 1.0 - np.conj(lam) * mu
            a = np.conj(lam) / den
            C[rows, k] = fact * (np.sqrt(1.0 - abs(lam) ** 2) / den * _div_geometric(running, a))
            running = _div_geometric(_mul_linear(running, lam - mu), a) / den
    return C


def jet_values(f: CoeffSeries, sigma: SigmaSet) -> np.ndarray:
    """Jet of f on sigma: f^(d)(lam) = sum_k (k)_d lam^(k-d) c_k for each (lam, d) functional."""
    funcs = sigma.functionals()
    ks = np.arange(len(f))
    P = np.zeros((len(funcs), ks.size), dtype=complex)
    for i, (lam, d) in enumerate(funcs):
        kk = ks[d:].astype(float)
        P[i, d:] = _falling(kk, d) * np.power(complex(lam), kk - d)
    return P @ f.coeffs
