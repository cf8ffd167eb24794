"""Reference values and checks computed without the discinterp package.

Every function here uses numpy only, so a defect in the library cannot
certify its own output.  Checks return an empty string when they pass and
a one-line reason when they fail.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def blaschke_value(zeros, z) -> complex:
    """prod_j b_{a_j}(z) with b_a(z) = (a - z) / (1 - conj(a) z)."""
    out = 1.0 + 0j
    for a in zeros:
        out *= (a - z) / (1.0 - np.conj(a) * z)
    return complex(out)


def blaschke_taylor(zeros, length: int) -> np.ndarray:
    """First ``length`` Taylor coefficients of prod_j b_{a_j}."""
    out = np.zeros(length, dtype=complex)
    out[0] = 1.0
    ks = np.arange(length)
    for a in zeros:
        # b_a(z) = a - (1 - |a|^2) sum_{k>=1} conj(a)^(k-1) z^k
        factor = np.empty(length, dtype=complex)
        factor[0] = a
        factor[1:] = -(1.0 - abs(a) ** 2) * np.conj(a) ** (ks[1:] - 1)
        out = np.convolve(out, factor)[:length]
    return out


def carleson_upper(nodes) -> float:
    """sum_i 1 / prod_{j != i} |b_{l_j}(l_i)|: the Lagrange-sum bound on the
    minimal-norm interpolant of unimodular data, hence on the Carleson
    constant."""
    nodes = list(nodes)
    total = 0.0
    for i, li in enumerate(nodes):
        delta = 1.0
        for j, lj in enumerate(nodes):
            if j != i:
                delta *= abs((lj - li) / (1.0 - np.conj(lj) * li))
        total += 1.0 / delta
    return total


def close(value: float, expected: float, rtol: float, what: str) -> str:
    if not np.isfinite(value) or abs(value - expected) > rtol * max(1.0, abs(expected)):
        return f"{what}: got {value!r}, expected {expected!r} (rtol {rtol:g})"
    return ""


def estimate_ok(value: float, upper: float, what: str) -> str:
    """An estimate is a lower bound; it may never exceed its certified upper bound."""
    if not np.isfinite(value) or value <= 0.0:
        return f"{what}: estimate {value!r} is not a positive number"
    if value > upper * (1.0 + 1e-6) + 1e-6:
        return f"{what}: estimate {value!r} above certified upper bound {upper!r}"
    return ""


def poly_jet(coeffs: np.ndarray, sigma) -> np.ndarray:
    """f^(d)(lam) for each (lam, d) functional of the multiset sigma, in order."""
    seen: dict[complex, int] = {}
    out = []
    cache: dict[int, np.ndarray] = {0: np.asarray(coeffs, dtype=complex)}
    for lam in sigma:
        d = seen.get(lam, 0)
        seen[lam] = d + 1
        if d not in cache:
            cache[d] = np.polynomial.polynomial.polyder(cache[0], d)
        out.append(np.polynomial.polynomial.polyval(lam, cache[d]))
    return np.array(out, dtype=complex)


def orthonormal_defect(rows: np.ndarray) -> float:
    """max |E E^H - I| for a stack of coefficient rows."""
    gram = rows @ rows.conj().T
    return float(np.max(np.abs(gram - np.eye(rows.shape[0]))))


def circle_max_lower(coeffs: np.ndarray, m: int = 8192) -> float:
    """max |f| on an m-point circle grid: a lower bound for ||f||_inf."""
    size = max(m, 2 * len(coeffs))
    return float(np.max(np.abs(np.fft.fft(coeffs, n=size))))
