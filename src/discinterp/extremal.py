"""Exact minimal-norm bounded interpolation on finite node multisets.

Every value is the spectral norm of a polynomial in the compressed shift
T_B, multiplication by z compressed to K_B = H^2 (-) B H^2 in its Malmquist
basis: ||f||_{H^inf / B H^inf} = ||f(T_B)||_2 (Sarason).  T_B comes in
closed form from series._compressed_shift: T[k, k] = lam_k and, for k > l,
T[k, l] = -s_k s_l prod_{l<m<k} conj(lam_m) with s_k = sqrt(1 - |lam_k|^2),
zero above the diagonal; nothing is truncated, and distinct, repeated and
mixed multisets are handled alike.
A function is evaluated at T_B by block Horner.  Values w at distinct nodes
enter as C^-1 diag(w) C with C[j, k] = e_k(lam_j), as C T_B = diag(lam) C
(_pick_factor), and coordinates b = L y on any multiset through the stack
N_j = sum_i L_ij e_i(T_B) (_malmquist_factor), each built once per node set.
cs_min_norm keeps the direct Toeplitz solver for jets at the origin.  A
rotated jet eta^k c_k (|eta| = 1) has the Toeplitz matrix D T(c) D^H with
D = diag(eta^i) unitary, so its norm is that of c: a real jet's norm is
taken from the real matrix, by singular values alone (_jet_norm).

The estimators maximise ||F(x)||_2 over a set of data x by a monotone
singular-vector ascent (_ascend): F is linear, so with (u, v) the top
singular pair of F(x) the value is sum_i x_i c_i with c_i = u^H M_i v, and
an update of x that maximises that bilinear form for fixed c never lowers it.
All starts climb in lockstep, one stacked SVD per step, and stop together
once the best value meets a certified upper bound, where there is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNodes
from .series import (CoeffSeries, SigmaSet, _basis_taylor, _check_diagonal, _compressed_shift,
                     _toeplitz)

__all__ = [
    "PickProblem",
    "ExtremalResult",
    "pick_min_norm",
    "cs_min_norm",
    "quotient_norm",
    "carleson_constant",
]

_MIN_SEPARATION = 1e-10
#: largest a-posteriori estimate n * eps * sum_i |a_i| ||M_i||_F / value of the
#: relative rounding error of the data map F(a) = sum_i a_i M_i at which a
#: value is returned; the estimate grows like eps / gap for coalescing nodes
_COND_LIMIT = 2e-3
_EPS = np.finfo(float).eps
#: the ascent stops once a step raises its value by less than this relative
#: amount, or after _ASCENT_STEPS singular value decompositions
_ASCENT_RTOL = 1e-12
_ASCENT_STEPS = 500


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
            if not abs(lam) < 1.0:  # also catches NaN
                raise DegenerateNodes(f"node {lam} is not in the open unit disc")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ExtremalResult:
    """Optimal value of a minimal-norm problem plus its certificate.

    For Pick problems the certificate is the smallest eigenvalue of the
    Pick matrix at the returned value, which is the exact feasibility
    boundary, so the certificate is zero up to rounding.  For Toeplitz
    problems and quotient norms it is the residual ||A v - s u|| of the
    leading singular triplet of the matrix A whose norm is the value.
    """

    value: float
    certificate: float
    mode: str


def _polyval_matrix(coeffs: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum_k c_k T^k by block Horner (Paterson-Stockmeyer) in T^s, s = ceil(sqrt(len))."""
    n = T.shape[0]
    s = math.isqrt(coeffs.size - 1) + 1
    powers = np.empty((s, n, n), dtype=complex)
    powers[0] = np.eye(n)
    for i in range(1, s):
        powers[i] = powers[i - 1] @ T
    padded = np.pad(coeffs, (0, -coeffs.size % s))
    blocks = (padded.reshape(-1, s) @ powers.reshape(s, n * n)).reshape(-1, n, n)
    step = powers[-1] @ T
    acc = blocks[-1]
    for block in blocks[-2::-1]:
        acc = acc @ step + block
    return acc


def _norm_result(matrix: np.ndarray, mode: str) -> ExtremalResult:
    """Spectral norm with its leading singular-triplet residual."""
    U, s, Vh = np.linalg.svd(matrix)
    value = float(s[0])
    residual = float(np.linalg.norm(matrix @ Vh[0].conj() - value * U[:, 0]))
    return ExtremalResult(value, residual, mode)


def _pick_factor(points) -> np.ndarray:
    """Stack M of the data map on distinct nodes, flat, shape (n, n*n).

    With C[j, k] = e_k(lam_j), lower triangular and read in closed form
    (_basis_taylor), C T_B = diag(lam) C, so
    data w at the nodes give F(w) = C^-1 diag(w) C = sum_i w_i M_i with the
    rank-one M_i = C^-1[:, i] C[i, :].  Raises DegenerateNodes for nodes
    closer than _MIN_SEPARATION, exact repeats included, and
    np.linalg.LinAlgError where a diagonal entry of C underflows or
    overflows (_check_diagonal), as for nodes clustered so tightly that
    the products of Blaschke factors vanish in double precision.
    """
    sigma = SigmaSet(tuple(points))
    sep = sigma.min_separation()
    if sep < _MIN_SEPARATION:
        raise DegenerateNodes(f"node separation {sep:.2e} < {_MIN_SEPARATION}")
    C = _basis_taylor(sigma.points, sigma.points)[0].T
    _check_diagonal(C)
    # C^T is upper triangular, so the LU inside inv exchanges no rows and
    # the inverse is a back substitution; inv(C) pivots and loses digits
    C_inv = np.linalg.inv(C.T).T
    return np.einsum("ai,ib->iab", C_inv, C).reshape(sigma.n, -1)


def _malmquist_factor(points, L: np.ndarray) -> np.ndarray:
    """Stack of N_j = sum_i L_ij A_i, A_k = e_k(T_B).

    A_k = s_k (I - conj(lam_k) T)^-1 prod_{j<k} b_{lam_j}(T) with
    b_lam(T) = (lam - T)(I - conj(lam) T)^-1, so g = sum_k b_k e_k in the
    Malmquist basis has ||g||_{H^inf / B H^inf} = ||sum_k b_k A_k||_2, which
    is ||sum_j y_j N_j||_2 at b = L y.  Flat, shape (n, n*n), as _pick_factor's.
    """
    lam = np.asarray(points, dtype=complex)
    n = lam.size
    T, eye = _compressed_shift(lam), np.eye(n)
    stack = np.empty((n, n, n), dtype=complex)
    running = eye.astype(complex)  # prod_{j<k} b_{lam_j}(T)
    for k in range(n):
        resolvent = np.linalg.solve(eye - np.conj(lam[k]) * T, running)
        stack[k] = np.sqrt(1.0 - abs(lam[k]) ** 2) * resolvent
        running = (lam[k] * eye - T) @ resolvent
    return L.T @ stack.reshape(n, n * n)


def _pick_value(stack: np.ndarray, a: np.ndarray) -> float:
    """Least sup-norm through the jet a on the factored nodes: ||F(a)||_2."""
    n = a.size
    return float(np.linalg.svd((a @ stack).reshape(n, n), compute_uv=False)[0])


def _ascend(stack: np.ndarray, starts, update, upper: float = math.inf) -> float:
    """Best ||F(x)||_2 over the ascents from starts, in lockstep.

    Each step takes one stacked SVD of the data maps F(x) of the starts still
    climbing, with (u, v) the top singular pair of each, forms the rows
    c_i = u^H M_i v (so ||F(x)||_2 = sum_i x_i c_i) and moves the rows X to
    update(C, X).  The update maximises |sum_i x_i c_i| over the feasible
    set for each row, which bounds the value at the new point from below,
    so each start's values do not decrease up to rounding.  A start stops
    once a step raises its value by less than _ASCENT_RTOL, or after
    _ASCENT_STEPS SVDs; every start stops once the best value reaches
    upper (1 - _ASCENT_RTOL), for upper a certified bound of the supremum.
    Each start's first best point is kept and the first start with the best
    value wins, as if the starts had been ascended in order; the data map
    of that point is checked by _check_accuracy.
    """
    stop = upper * (1.0 - _ASCENT_RTOL)
    X = np.array(starts)
    k, n = X.shape
    # the per-row bookkeeping is on Python floats: at a budget of a few
    # starts, numpy calls on so short arrays cost more than the SVDs save
    rows = list(range(k))  # the start of each climbing row, in order
    run_best, best, best_at = [0.0] * k, [0.0] * k, [None] * k
    for _ in range(_ASCENT_STEPS):
        U, s, Vh = np.linalg.svd((X @ stack).reshape(-1, n, n))
        values = s[:, 0].tolist()
        for j, (r, value) in enumerate(zip(rows, values)):
            if value > best[r]:
                best[r], best_at[r] = value, X[j]
        climbing = [v > b * (1.0 + _ASCENT_RTOL) for v, b in zip(values, run_best)]
        if max(values) >= stop or not any(climbing):
            break
        if not all(climbing):
            keep = np.flatnonzero(climbing)
            rows, values = [rows[j] for j in keep], [values[j] for j in keep]
            X, U, Vh = X[keep], U[keep], Vh[keep]
        run_best = values
        pairs = (U[:, :, 0, None] * Vh[:, 0, None, :]).conj().reshape(len(rows), n * n)
        X = update(pairs @ stack.T, X)
    i = max(range(k), key=best.__getitem__)  # the first start with the best value
    if best_at[i] is not None:
        _check_accuracy(stack, best_at[i], best[i])
    return best[i]


def _check_accuracy(stack: np.ndarray, a: np.ndarray, value: float):
    """Raise DegenerateNodes when rounding in F(a) may exceed _COND_LIMIT * value.

    The estimate n eps sum_i |a_i| ||M_i||_F, with the Frobenius norms of
    the rows of the flat stack, covers only the rounding of the final
    combination sum_i a_i M_i.  It leaves out the rounding made while
    forming the M_i and in the SVD, so it is an estimate, not a strict
    bound: on 16 nodes in the 0.5-disc with s*B data, 7 of 100 draws had a
    true relative error above it (up to 2.3e-12 against 1.6e-13).
    """
    norms = np.linalg.norm(stack, axis=1)
    bound = norms.size * _EPS * float(np.abs(a) @ norms)
    if bound > _COND_LIMIT * value:
        raise DegenerateNodes(f"nodes too close: rounding estimate {bound:.1e}, value {value:.1e}")


def pick_min_norm(problem: PickProblem) -> ExtremalResult:
    """Least sup-norm of a bounded interpolant through the given data.

    The value is ||F(T_B)||_2 for the Lagrange interpolant F of the data,
    exact up to dense linear-algebra accuracy; there is no iteration.
    Raises DegenerateNodes for nodes closer than _MIN_SEPARATION, repeated
    nodes included, and when the rounding estimate exceeds _COND_LIMIT.
    """
    nodes = np.array(problem.nodes)
    values = np.array(problem.values)
    stack = _pick_factor(problem.nodes)
    value = _pick_value(stack, values)
    _check_accuracy(stack, values, value)
    cauchy = 1.0 / (1.0 - np.outer(nodes, nodes.conj()))
    pick = value * value * cauchy - np.outer(values, values.conj()) * cauchy
    return ExtremalResult(value, float(np.linalg.eigvalsh(pick)[0]), "pick")


def _jet_norm(c: np.ndarray) -> float:
    """cs_min_norm(c).value from the singular values alone, in c's dtype."""
    return float(np.linalg.svd(_toeplitz(c), compute_uv=False)[0])


def cs_min_norm(coeffs) -> ExtremalResult:
    """Least sup-norm over analytic functions with the given leading jet.

    Equals the spectral norm of the lower-triangular Toeplitz matrix
    T[i, j] = c_{i-j}; exact up to dense SVD accuracy.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a nonempty 1-d coefficient vector")
    return _norm_result(_toeplitz(c), "toeplitz")


def quotient_norm(f: CoeffSeries, sigma: SigmaSet) -> ExtremalResult:
    """Distance-to-ideal norm: least sup-norm matching the jet of f on sigma.

    Returns ||f(T_B)||_2 with B the Blaschke product of sigma, evaluated
    exactly by block Horner for any node multiset.  The mode names the
    multiset: "pick" for distinct points, "toeplitz" for one repeated
    point, "hermite" otherwise.
    """
    groups = len(sigma.groups())
    mode = "pick" if groups == sigma.n else "toeplitz" if groups == 1 else "hermite"
    return _norm_result(_polyval_matrix(f.coeffs, _compressed_shift(sigma.points)), mode)


def carleson_constant(
    sigma: SigmaSet,
    budget: int = 64,
    seed: int = 0,
) -> float:
    """Lower estimate of the worst minimal-norm interpolation of unit data.

    Maximises the Pick value ||F(w)||_2 over unimodular data w (the sup over
    the unit polydisc is attained there) by the monotone ascent: with c the
    coefficients of the top singular pair, w_i <- conj(c_i)/|c_i| (w_i kept
    where c_i = 0) raises the value to at least sum_i |c_i|.  budget counts
    the starts, ascended in lockstep, each to its own stop rule (the upper
    bound sqrt(n) ||[M_1; ..; M_n]||_2 sits 1.05-1.70x above the ascent,
    too far to stop it): the alternating data (1, -1, 1, ..), then seeded
    uniform phases.  The nodes are factored once.  Deterministic
    under a fixed seed; the returned value is attained, so it is a
    certified lower bound of the supremum, not the supremum itself.
    Raises DegenerateNodes for nodes closer than _MIN_SEPARATION.
    """
    n = sigma.n
    stack = _pick_factor(sigma.points)

    def phase_step(C: np.ndarray, W: np.ndarray) -> np.ndarray:
        mag = np.abs(C)
        return np.divide(C.conj(), mag, out=W.copy(), where=mag > 0)

    # not the all-ones data: F(1, .., 1) = I, whose top singular pair is not
    # unique, and from the pair the SVD returns the ascent cannot leave it
    starts = [np.array([(-1.0) ** k for k in range(n)], dtype=complex)]
    rng = np.random.default_rng(seed)
    while len(starts) < budget:
        phases = rng.uniform(-np.pi, np.pi, size=n - 1)
        starts.append(np.exp(1j * np.concatenate(([0.0], phases))))
    return _ascend(stack, starts, phase_step)
