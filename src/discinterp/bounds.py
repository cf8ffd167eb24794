"""Interpolation-constant estimation and closed-form growth bounds.

The constant of a node set sigma over a Hilbert space X is
sup { min-sup-norm interpolant of f / ||f||_X } over the unit ball.  Two
functions with the same jet on sigma have the same projection
g = sum_k b_k e_k onto the model space K_B, and the worst f for a given
g is its minimal-norm representative, so the sup collapses to a
maximisation over Malmquist coordinates b: with b = L y, L L^H = S the
Stein-sum Gram of the coordinates, the spectral norm of the 3-tensor
N_j = sum_i L_ij e_i(T_B) over unit y, u, v.  It runs as a monotone
singular-vector ascent in y from a fixed list of seeded starts, all
climbing in lockstep, and stops at a certified upper bound of the sup
from the same tensor, the least spectral norm of its three flattenings.

Lower bounds come from explicit witnesses: the analytic Fejer kernel
(or its integer power for weighted sequence spaces), turned so its
boundary peak faces away from the target point and transplanted there by
the Blaschke involution.  Every number built from it is radial, so it is
read once, at r = |lam|, in real arithmetic (_witness_at): the norm of
the transplant from its exact Malmquist coordinates, so nothing is
composed or truncated, the jet norm of the real kernel power, once per n
in a sweep, and the one-point ascent start.  Closed-form two-sided bound
formulas are emitted alongside, with honest "order-only" flags where the
underlying constants are not numeric.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import Divergence, NotHilbert, PoleOnDomain, UnsupportedSpace
from .extremal import _ascend, _jet_norm, _malmquist_factor
from .series import CoeffSeries, SigmaSet, _div_geometric, fejer_kernel, series_power
from .spaces import _malmquist_cholesky, _malmquist_series
from . import spaces as _sp

__all__ = [
    "BoundReport",
    "SweepRow",
    "SweepResult",
    "interp_constant",
    "witness_lower_bound",
    "theorem_bounds",
    "bound_sweep",
]

@dataclass(frozen=True)
class BoundReport:
    """Two-sided growth bounds for one (n, r) class, plus the conjectured scale.

    ``lower``/``upper`` are powers of x = n / (1 - r) named by their tags;
    ``*_known`` is False where the constant is set to 1 (order only).
    ``phi_scale`` is the evaluation-functional norm at 1 - (1 - r)/n, or None
    where its series raises Divergence.
    """

    n: int
    r: float
    x: float
    lower: float
    upper: float
    lower_tag: str
    upper_tag: str
    lower_known: bool
    upper_known: bool
    phi_scale: float | None


def theorem_bounds(space: _sp.SpaceSpec, n: int, r: float) -> BoundReport:
    """Closed-form lower/upper bound values for the class (n, r).

    The class is every sigma of at most n points (with multiplicity) in
    |z| <= r.  Known multiplicative constants are filled in (the Hardy lower
    side 1/32^(1/p), the explicit sqrt(2) upper factor at p = 2); everything
    else is emitted with constant 1 and flagged order-only, never to be
    asserted against estimates; phi_scale is None only on Divergence.  Raises
    ValueError unless n is an integer >= 1 and 0 <= r < 1.
    """
    n = _multiplicity(n)
    if not (0.0 <= r < 1.0):
        raise ValueError("need 0 <= r < 1")
    x = n / (1.0 - r)
    invp = 0.0 if space.p == np.inf else 1.0 / space.p

    if space.family == "hardy":
        lower, lower_tag, lower_known = (1.0 / 32.0) ** invp * x**invp, "hardy-lower", True
        if space.p == 2:
            upper, upper_tag, upper_known = (
                math.sqrt(2.0) * math.sqrt(x), "hardy-upper-exact", True
            )
        else:
            upper, upper_tag, upper_known = x**invp, "hardy-upper-order", False
    elif space.family == "seq":
        alpha = space.alpha
        if space.p == 2:
            lower = upper = x ** ((2.0 * alpha - 1.0) / 2.0)
            lower_tag = upper_tag = "seq-order"
        else:
            lower, lower_tag = (1.0 / (1.0 - r)) ** (alpha - invp), "seq-eval-order"
            up_expo = alpha - 0.5 if space.p <= 2 else alpha + 0.5 - 2.0 * invp
            upper, upper_tag = x**up_expo, "seq-interp-order"
        lower_known = upper_known = False
    else:  # bergman
        beta = space.beta
        if space.p == 2:
            # same scale as the alpha = (beta+3)/2 sequence space
            lower = upper = x ** ((beta + 2.0) / 2.0)
            lower_tag = upper_tag = "bergman-order"
        else:
            lower, lower_tag = 0.0, "none"
            upper, upper_tag = x ** ((beta + 2.0) / space.p), "bergman-jet-upper"
        lower_known = upper_known = False

    phi = None
    with suppress(Divergence):
        phi = _sp.eval_functional_norm(space, 1.0 - (1.0 - r) / n)
    return BoundReport(
        n, r, x, lower, upper, lower_tag, upper_tag, lower_known, upper_known, phi
    )


def _multiplicity(n) -> int:
    """n as an int; ValueError unless it is an integer >= 1 (numpy integers too)."""
    try:
        k = operator.index(n)
    except TypeError:
        raise ValueError(f"n must be an integer >= 1, got {n!r}") from None
    if k < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    return k


def _witness_power(space: _sp.SpaceSpec) -> int:
    if space.family == "hardy" and space.p == 2:
        return 1
    if space.family == "seq" and space.p == 2 and (m := _sp._kernel_power(space.alpha)):
        return m
    raise UnsupportedSpace(
        "witness needs H^2 or a weighted l^2 space with integer 2*alpha - 1"
    )


def _witness_at(space: _sp.SpaceSpec, r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The kernel power K = K_n^m and the real coefficients h of W / (1 - r z).

    W(z) = K(-z) for r > 0 and W = K at r = 0.  It stands for the witness at
    every lam = r e^(i phi): the kernel turned so its boundary peak faces
    away from lam is W_lam(z) = K(eta z), eta = -e^(-i phi), and as
    b_lam(e^(i phi) z) = e^(i phi) b_r(z), W_lam o b_lam(e^(i phi) z) is
    W o b_r(z); the norms are radial, so one real transplant serves every
    phase.  Over the Malmquist basis of (r, r, ..), W o b_r is
    sum_k s h_k e_k, s = sqrt(1 - r^2).  Past m = deg W, h_k = h_m r^(k-m)
    and the tail sums to h_m b_r^m, so over the zeros (r,)*m + (0,) the
    coordinates are exactly b = (s h_0, .., s h_(m-1), h_m); over
    (lam, lam, ..) those of W_lam o b_lam are s h_k e^(-i k phi).  The
    involution b_lam carries b_lam^n H^inf onto z^n H^inf, so the quotient
    norm of the transplant is the jet norm of W_lam[:n], whose Toeplitz
    matrix is D T D^H, D = diag(eta^i) unitary and T that of the real K[:n].
    """
    m = _witness_power(space)  # first: an unsupported space builds no kernel
    K = series_power(fejer_kernel(n), m).coeffs.real
    W = K * (-1.0) ** np.arange(K.size) if r > 0 else K
    return K, _div_geometric(W, r)


def witness_lower_bound(space: _sp.SpaceSpec, lam: complex, n: int) -> float:
    """Certified lower bound for the interpolation constant of sigma_{lam,n}.

    The witness is K_n^m, the m-th power of the analytic Fejer kernel
    (coefficients 1 - k/n for k < n, m = 2*alpha - 1), turned so its
    boundary peak faces away from lam, then transplanted by b_lam.  The
    returned quotient/norm ratio is a valid lower bound for any witness;
    the turn is what makes it grow at the proved (n/(1-r))-power rate.
    Both are read at r = |lam| in real arithmetic (_witness_at), so the
    value depends on |lam| alone; the jet norm is the top singular value
    of one real Toeplitz matrix, taken without singular vectors
    (_jet_norm).  Raises ValueError unless n is an integer >= 1.
    """
    jet, size = _witness_parts(space, lam, n)
    return _jet_norm(jet) / size


def _witness_parts(space: _sp.SpaceSpec, lam: complex, n: int) -> tuple[np.ndarray, float]:
    """The real jet K_n^m[:n] and the norm of the transplanted witness at r = |lam|.

    The norm is ||b||_2 of the coordinates b of _witness_at where every
    kappa_k is 1 (H^2 and l^2_a(1), where the basis is orthonormal),
    norm(space, K) at r = 0, and otherwise the norm of the real Taylor
    series that _malmquist_series sums from b over (r,)*deg W + (0,).
    Raises ValueError unless n is an integer >= 1.
    """
    n = _multiplicity(n)
    r = abs(complex(lam))
    if not r < 1.0:  # also catches NaN
        raise PoleOnDomain(f"witness point {lam} is not in the open unit disc")
    K, h = _witness_at(space, r, n)
    b = np.append(math.sqrt(1.0 - r**2) * h[:-1], h[-1])
    if _sp._unit_kernel(space):
        return K[:n], float(np.linalg.norm(b))
    if r == 0.0:
        return K[:n], _sp.norm(space, CoeffSeries(K))
    series = _malmquist_series(np.array((r,) * (b.size - 1) + (0.0,)), b)
    return K[:n], _sp.norm(space, CoeffSeries(series))


def interp_constant(
    space: _sp.SpaceSpec,
    sigma: SigmaSet,
    budget: int = 32,
    seed: int = 0,
) -> float:
    """Ascent estimate of the interpolation constant of sigma over X.

    Maximises J(b) = ||sum_k b_k A_k||_2 / sqrt(b^H S^-1 b) over the
    Malmquist coordinates b of g = sum_k b_k e_k: the least sup-norm with
    the jet of g (A_k = e_k(T_B)) over the least X-norm, S the
    kernel-weighted Gram of the basis coefficients (S = I on H^2).  At
    b = L y, L L^H = S, J is ||sum_j y_j N_j||_2 over unit y
    (_malmquist_factor), and each step moves to y <- conj(c) / ||c||, c the
    coefficients of the top singular pair, where the value is at least
    ||c||, itself at least the previous value.  budget counts the starts
    b, taken to y = L^-1 b and ascended in lockstep (_ascend): the unit
    vectors, the all-ones and alternating vectors, then seeded random
    vectors, with the transplanted witness first when sigma is one
    repeated point (lam,)*n: its coordinates h_k e^(-i k arg lam), k < n,
    h from _witness_at at r = |lam| and the factor s left to the
    normalisation, so the estimate is at least witness_lower_bound.  Every
    start stops once the estimate is within _ASCENT_RTOL of the flattening
    bound (_flattening_bound), which bounds the sup from above.
    Deterministic under a fixed seed.  The result is an attained value, so
    a lower estimate of the true sup, never below any start's J, and never
    exceeds the flattening bound or the projection operator norm (plus
    rounding).  Raises LinAlgError where S has no Cholesky factor in double
    precision (_malmquist_cholesky).
    """
    if not space.is_hilbert:
        raise NotHilbert("constant estimation needs a Hilbert-case space")
    n = sigma.n
    L = _malmquist_cholesky(space, sigma)
    starts = _starts(n, budget, seed)
    lam = sigma.single_point()
    if lam is not None:
        try:
            h = _witness_at(space, abs(lam), n)[1][:n]
        except UnsupportedSpace:
            pass
        else:
            turn = np.exp(-1j * np.angle(lam) * np.arange(n))
            starts.insert(0, h * turn / np.linalg.norm(h))
    Y = np.linalg.solve(L, np.transpose(starts)).T
    Y /= np.linalg.norm(Y, axis=1, keepdims=True)

    def step(C: np.ndarray, Y: np.ndarray) -> np.ndarray:  # y = conj(c) / ||c|| per row
        return C.conj() / np.linalg.norm(C, axis=1, keepdims=True)

    N = _malmquist_factor(sigma.points, L)
    return _ascend(N, Y, step, _flattening_bound(N))


def _flattening_bound(N: np.ndarray) -> float:
    """Upper bound of max_b ||sum_k b_k A_k||_2 / sqrt(b^H S^-1 b).

    That maximum is the spectral norm of the tensor N (_malmquist_factor)
    over unit y, u, v, which each of its three flattenings (n x n^2
    matrices) bounds from above; this is the least of the three, one
    stacked eigvalsh of their Grams.
    """
    n = N.shape[0]
    N = N.reshape(n, n, n)  # N[j, a, b]
    F = np.stack((N, N.transpose(1, 0, 2), N.transpose(2, 0, 1))).reshape(3, n, n * n)
    top = np.linalg.eigvalsh(F @ F.conj().transpose(0, 2, 1))[:, -1]
    return math.sqrt(max(float(top.min()), 0.0))


def _starts(n: int, budget: int, seed: int) -> list[np.ndarray]:
    starts = list(np.eye(n, dtype=complex))
    starts.append(np.ones(n, dtype=complex) / math.sqrt(n))
    starts.append(np.array([(-1.0) ** k for k in range(n)], dtype=complex) / math.sqrt(n))
    rng = np.random.default_rng(seed) if len(starts) < budget else None
    while len(starts) < budget:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(v / np.linalg.norm(v))
    return starts[: max(budget, 1)]


@dataclass(frozen=True)
class SweepRow(BoundReport):
    """A theorem_bounds report plus witness_lower_bound and interp_constant at (r,) * n.

    ``witness`` is None without a kernel witness, ``estimate`` past estimate_cap, and
    either where its series raises Divergence."""

    witness: float | None
    estimate: float | None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope_witness: float | None
    slope_estimate: float | None


def _fit_slope(xs: list[float], ys: list[float]) -> float | None:
    if len(xs) < 2 or len(set(xs)) < 2:
        return None
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def bound_sweep(
    space: _sp.SpaceSpec,
    n_grid,
    r_grid,
    budget: int = 16,
    estimate_cap: int = 0,
    seed: int = 0,
) -> SweepResult:
    """Witness bounds, optional constant estimates and formulas on a grid.

    Rows are ordered n-major then r.  The witness is witness_lower_bound's,
    bitwise, but the sweep takes the jet norm once per n: every cell of
    that n shares the one real jet K_n^m[:n] (_witness_at).  The log-log
    slope of the witness (and estimate, when present on at least two
    cells) against n/(1-r) is fitted at the end.  Raises ValueError unless
    every n is an integer >= 1.
    """
    cells = [(n, float(r)) for n in map(_multiplicity, n_grid) for r in r_grid]
    if not cells:
        raise ValueError("empty sweep grid")
    jet_norms: dict[int, float] = {}

    def make_row(cell: tuple[int, float]) -> SweepRow:
        n, r = cell
        report, witness, estimate = theorem_bounds(space, n, r), None, None
        with suppress(UnsupportedSpace, Divergence):  # else the cell is left empty
            jet, size = _witness_parts(space, r, n)
            if n not in jet_norms:
                jet_norms[n] = _jet_norm(jet)
            witness = jet_norms[n] / size
        if space.is_hilbert and 0 < n <= estimate_cap:
            with suppress(Divergence):
                estimate = interp_constant(space, SigmaSet((complex(r),) * n), budget, seed)
        return SweepRow(**vars(report), witness=witness, estimate=estimate)

    rows = tuple(make_row(c) for c in cells)

    wit = [(row.x, row.witness) for row in rows if row.witness]
    est = [(row.x, row.estimate) for row in rows if row.estimate]
    return SweepResult(
        rows=rows,
        slope_witness=_fit_slope([x for x, _ in wit], [y for _, y in wit]),
        slope_estimate=_fit_slope([x for x, _ in est], [y for _, y in est]),
    )
