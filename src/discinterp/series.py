"""Truncated Taylor series on the unit disc, node multisets and the closed-form model space.

A series is its coefficient vector c_0..c_N; all operations are pure and
return new objects.  The model space K_B of a node multiset is read here in
closed form, and every higher layer reads it from here.  The Malmquist
basis functions e_k come from one Taylor recurrence (_basis_taylor) at any
points, nodes included: their values, derivatives and exact jets on the
nodes (_basis_jets).  The compressed shift T_B, multiplication by z
compressed to K_B, is its matrix in that basis (_compressed_shift).
compose_with_blaschke is a reference composition that no library path calls.
"""

from __future__ import annotations

import math
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
    """Multiply a coefficient vector by 1 / (1 - a z), same length; real for real data."""
    out = coeffs.astype(np.result_type(coeffs, a))
    # 1 / (1 - a z) = prod_j (1 + (a z)^(2^j)); each factor is one shifted add
    step, power = 1, a
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


def _falling(ks: np.ndarray, d: int) -> np.ndarray:
    """Falling factorial (k)_d = k (k-1) ... (k-d+1) of integers k >= 0; 0 for k < d from the
    start, as the running product would pass the float range (k! from k = 171) before its 0."""
    out = (ks >= d).astype(float)
    for i in range(d):
        out *= ks - i
    return out


def _compressed_shift(points) -> np.ndarray:
    """T_B in the Malmquist basis of the Blaschke product with these zeros.

    Real for a real array of zeros, complex otherwise."""
    lam = np.asarray(points)
    if lam.dtype.kind != "c":
        lam = lam.astype(float)
    T = np.eye(lam.size, k=-1, dtype=lam.dtype)  # below the diagonal, prod_{l<m<k} conj(lam_m)
    for k in range(2, lam.size):
        T[k, : k - 1] = T[k - 1, : k - 1] * lam[k - 1].conjugate()
    s = np.sqrt(1.0 - np.abs(lam) ** 2)
    T *= -s[:, None] * s
    T.flat[:: lam.size + 1] = lam
    return T


def _basis_taylor(points, z, m: int = 1) -> np.ndarray:
    """T[d, k, j], the d-th Taylor coefficient in h of e_k(z_j + h); shape (m, n, len(z)).

    1 / (1 - conj(lam) (z + h)) = inv / (1 - a h), inv = 1 / (1 - conj(lam) z), a = conj(lam) inv,
    so the m-row running product of the b_lam(z + h) is divided in place, one shifted add
    per factor of 1 / (1 - a h) = prod_i (1 + (a h)^(2^i)), and multiplied by lam - z - h;
    no 1 / (lam - z) is formed, so z may be a node.
    """
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.empty((m, len(points), zs.size), dtype=complex)
    running = np.repeat(np.eye(m, 1, dtype=complex), zs.size, axis=1)  # prod_{j<k} b_{lam_j}
    for k, lam in enumerate(points):
        inv = 1.0 / (1.0 - lam.conjugate() * zs)
        running *= inv
        step = 1
        while step < m:
            power = lam.conjugate() * inv if step == 1 else power * power  # a^step
            running[step:] += power * running[:-step]
            step *= 2
        np.multiply(running, math.sqrt(1.0 - abs(lam) ** 2), out=out[:, k])
        lin = lam - zs
        running[1:] = lin * running[1:] - running[:-1]
        running[0] *= lin
    return out


def _basis_jets(sigma: SigmaSet) -> np.ndarray:
    """C[i, k] = e_k^(d_i)(lam_i) for the (lam_i, d_i) of sigma.functionals().

    Lower triangular, as e_k vanishes to order d_i + 1 at lam_i for k > i;
    row i is d_i! times coefficient d_i of _basis_taylor at lam_i.  Raises
    np.linalg.LinAlgError where a diagonal entry overflows or underflows.
    """
    nodes = [p for p, _ in sigma.groups()]
    d, j = np.array([(d, nodes.index(p)) for p, d in sigma.functionals()]).T
    with np.errstate(over="ignore", invalid="ignore"):
        T = _basis_taylor(sigma.points, nodes, d.max() + 1)
        C = np.cumprod(np.maximum(np.arange(T.shape[0]), 1.0))[d, None] * T[d, :, j]  # d!
    _check_diagonal(C)
    return C


def _check_diagonal(C: np.ndarray) -> None:
    """Raise np.linalg.LinAlgError naming the first diagonal entry of C that is 0 or not finite."""
    d = C.diagonal()
    bad = np.flatnonzero(~np.isfinite(d) | (d == 0.0))
    if bad.size:
        kind = "underflow" if d[bad[0]] == 0.0 else "overflow"
        raise np.linalg.LinAlgError(f"the basis jets {kind} at diagonal {bad[0]}")


def jet_values(f: CoeffSeries, sigma: SigmaSet) -> np.ndarray:
    """Jet of f on sigma: f^(d)(lam) = sum_k (k)_d lam^(k-d) c_k for each (lam, d) functional."""
    funcs = sigma.functionals()
    ks = np.arange(len(f))
    P = np.zeros((len(funcs), ks.size), dtype=complex)
    for i, (lam, d) in enumerate(funcs):
        kk = ks[d:].astype(float)
        P[i, d:] = _falling(kk, d) * np.power(complex(lam), kk - d)
    return P @ f.coeffs
