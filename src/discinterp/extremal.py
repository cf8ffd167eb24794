"""Exact minimal-norm bounded interpolation on finite node sets.

Distinct nodes go through the Pick matrix.  With the Cauchy (Szego
kernel) matrix C = [1 / (1 - lam_i conj(lam_j))] = L L^H and D = diag(w),
the Pick condition c^2 C - D C D^H >= 0 holds exactly when
c >= ||L^-1 D L||_2, so the least norm is one small spectral norm: the
norm of multiplication by the data compressed to the model space.  The
factor L and its inverse depend on the nodes only and are built once per
node set.  A single node of multiplicity n is the Taylor-jet problem,
solved exactly as the spectral norm of the lower-triangular Toeplitz
matrix of the jet.  The quotient norm dispatches between the two after
transplanting jets to the origin with the involution b_lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.linalg import solve_triangular, toeplitz
from scipy.optimize import minimize

from .errors import DegenerateNodes, MixedMultiplicity
from .series import CoeffSeries, SigmaSet, compose_with_blaschke, eval_series

__all__ = [
    "PickProblem",
    "ExtremalResult",
    "pick_min_norm",
    "cs_min_norm",
    "quotient_norm",
    "carleson_constant",
]

_MIN_SEPARATION = 1e-10
#: largest eps * cond(C) at which a Pick value is returned; against
#: 60-digit arithmetic the relative error of ||L^-1 D L|| was at most about
#: eps * cond(C) / 5 (coalescing pairs are the worst case), so returned
#: values hold to about 4e-4
_COND_LIMIT = 2e-3


@dataclass(frozen=True)
class PickProblem:
    """Distinct nodes in the disc with target values."""

    nodes: tuple[complex, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        nodes = tuple(complex(x) for x in self.nodes)
        values = tuple(complex(x) for x in self.values)
        if len(nodes) != len(values) or not nodes:
            raise ValueError("need equally many nodes and values, at least one")
        for lam in nodes:
            if abs(lam) >= 1.0:
                raise DegenerateNodes(f"node |{lam}| >= 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExtremalResult:
    """Optimal value of a minimal-norm problem plus its certificate.

    For Pick problems the certificate is the smallest eigenvalue of the
    Pick matrix at the returned value, which is the exact feasibility
    boundary, so the certificate is zero up to rounding; for Toeplitz
    problems it is the residual ||T v - s u|| of the leading
    singular triplet.
    """

    value: float
    certificate: float
    mode: str


def _pick_factor(nodes) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor L of the Cauchy matrix of the nodes, and L^-1.

    Raises DegenerateNodes for nodes closer than _MIN_SEPARATION, and for
    a Cauchy matrix too ill-conditioned to give the Pick value to about
    1e-3 (coalescing nodes), rather than return a wrong value.
    """
    nodes = np.asarray(nodes, dtype=complex)
    n = nodes.size
    if n > 1:
        gaps = np.abs(np.subtract.outer(nodes, nodes))[np.triu_indices(n, 1)]
        sep = float(gaps.min())
        if sep < _MIN_SEPARATION:
            raise DegenerateNodes(f"node separation {sep:.2e} < {_MIN_SEPARATION}")
    cauchy = 1.0 / (1.0 - np.outer(nodes, nodes.conj()))
    try:
        chol = np.linalg.cholesky(cauchy)
    except np.linalg.LinAlgError:
        raise DegenerateNodes("Cauchy matrix numerically singular; nodes too close") from None
    chol_inv = solve_triangular(chol, np.eye(n), lower=True)
    cond = (np.linalg.norm(chol, 2) * np.linalg.norm(chol_inv, 2)) ** 2
    if cond * np.finfo(float).eps > _COND_LIMIT:
        raise DegenerateNodes(f"Cauchy matrix condition {cond:.1e}; nodes too close")
    return chol, chol_inv


def _pick_value(factor: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> float:
    """Least sup-norm through the values on the factored nodes: ||L^-1 D L||_2."""
    chol, chol_inv = factor
    return float(np.linalg.svd(chol_inv @ (values[:, None] * chol), compute_uv=False)[0])


def pick_min_norm(problem: PickProblem, tol: float = 1e-8) -> ExtremalResult:
    """Least sup-norm of a bounded interpolant through the given data.

    The value is ||L^-1 diag(w) L||_2 with C = L L^H the Cauchy matrix of
    the nodes, exact up to dense linear-algebra accuracy; there is no
    iteration, and tol is accepted for compatibility only.
    """
    nodes = np.array(problem.nodes)
    values = np.array(problem.values)
    value = _pick_value(_pick_factor(nodes), values)
    cauchy = 1.0 / (1.0 - np.outer(nodes, nodes.conj()))
    pick = value * value * cauchy - np.outer(values, values.conj()) * cauchy
    return ExtremalResult(value, float(np.linalg.eigvalsh(pick)[0]), "pick")


def cs_min_norm(coeffs) -> ExtremalResult:
    """Least sup-norm over analytic functions with the given leading jet.

    Equals the spectral norm of the lower-triangular Toeplitz matrix
    T[i, j] = c_{i-j}; exact up to dense SVD accuracy.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a nonempty 1-d coefficient vector")
    first_row = np.zeros_like(c)
    first_row[0] = c[0]
    T = toeplitz(c, first_row)
    U, s, Vh = np.linalg.svd(T)
    value = float(s[0])
    residual = float(np.linalg.norm(T @ Vh[0].conj() - value * U[:, 0]))
    return ExtremalResult(value, residual, "toeplitz")


def quotient_norm(f: CoeffSeries, sigma: SigmaSet, tol: float = 1e-8) -> ExtremalResult:
    """Distance-to-ideal norm: least sup-norm matching the jet of f on sigma.

    Distinct sigma reduces to a Pick problem on the point values; a single
    point of multiplicity n transplants the jet to the origin through
    b_lam (an isometry of H^inf) and solves the Taylor-jet problem on the
    first n coefficients of f o b_lam.  Both solves are exact; tol is
    accepted for compatibility only.
    """
    if sigma.is_distinct(_MIN_SEPARATION):
        values = [eval_series(f, lam) for lam in sigma.points]
        return pick_min_norm(PickProblem(sigma.points, tuple(values)), tol=tol)
    lam = sigma.single_point()
    if lam is None:
        raise MixedMultiplicity(
            "sigma must be pairwise distinct or a single repeated point"
        )
    composed = compose_with_blaschke(f, lam, n_out=sigma.n - 1)
    return cs_min_norm(composed.coeffs)


def carleson_constant(
    sigma: SigmaSet,
    tol: float = 1e-6,
    budget: int = 64,
    seed: int = 0,
) -> float:
    """Lower estimate of the worst minimal-norm interpolation of unit data.

    Maximises the Pick value over unimodular data (the sup over the unit
    polydisc is attained there) by multistart Nelder-Mead on the phase
    angles; the nodes are factored once and every evaluation is one small
    spectral norm.  Deterministic under a fixed seed; the returned value is a
    certified lower bound of the supremum, not the supremum itself.
    """
    if not sigma.is_distinct(_MIN_SEPARATION):
        raise DegenerateNodes("Carleson constant needs pairwise distinct nodes")
    n = sigma.n
    factor = _pick_factor(sigma.points)

    def value_of(phases: np.ndarray) -> float:
        return _pick_value(factor, np.exp(1j * np.concatenate(([0.0], phases))))

    if n == 1:
        return value_of(np.zeros(0))

    starts: list[np.ndarray] = []
    quarter = {1.0: 0.0, -1.0: np.pi, 1.0j: np.pi / 2, -1.0j: -np.pi / 2}
    for combo in product((1.0, -1.0, 1.0j, -1.0j), repeat=n - 1):
        starts.append(np.array([quarter[q] for q in combo]))
        if len(starts) >= max(budget // 2, 1):
            break
    rng = np.random.default_rng(seed)
    while len(starts) < budget:
        starts.append(rng.uniform(-np.pi, np.pi, size=n - 1))

    best = 0.0
    for x0 in starts[:budget]:
        best = max(best, value_of(x0))
        res = minimize(
            lambda x: -value_of(x),
            x0,
            method="Nelder-Mead",
            options={"maxfev": 120 * (n - 1) + 40, "xatol": 1e-4, "fatol": tol / 4},
        )
        best = max(best, -float(res.fun))
    return best
