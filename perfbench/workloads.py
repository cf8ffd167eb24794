"""The three benchmark workloads: seeded job lists and their oracles.

A job is one user-shaped request: a ``discinterp`` CLI invocation made
in-process (JSON artifact on a captured stdout) or one pass of the README
library flow.  ``run`` is the timed part; ``check`` runs afterwards,
outside the timing, and returns ``(reason, ratios)`` where ``reason`` is
empty when every oracle passes and ``ratios`` holds estimate / frozen
reference for each estimate the job produced.

Why each workload exists:

* ``pick``  distinct nodes (n = 2..4, r <= 0.8, separation >= 0.08): the
  Pick bisection driven by the Nelder-Mead estimators; never touches
  ``modelspace``.
* ``jet``   single repeated nodes (lam,)*n with n >= 2: Blaschke
  composition, the Toeplitz jet solver and confluent Gram matrices; never
  reaches the Pick path.
* ``model`` Malmquist bases, the interpolation operator and Banach norms;
  no ``extremal`` call at all.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

ALPHA = 1.5  # 2*alpha - 1 = 2 is an integer, so sweeps have kernel witnesses
BETA = 1.0
FAMILIES = ("hardy", "seq", "bergman")
PICK_NS = (2, 3, 4)
POOL_SIZE = 4
JET_NS = (2, 3, 4)
JET_RADII = (0.0, 0.5, 0.9)
# (n with multiplicity, max modulus) per library-flow slot; a fixed max
# modulus keeps the truncation degree, and so the cost, the same per seed
MODEL_SLOTS = ((3, 0.5), (4, 0.7), (5, 0.9), (6, 0.95), (9, 0.95))
WARMUP = {
    "pick": ["pick", "--nodes=0,0.5", "--values=0,0.5"],
    "jet": ["cs", "--coeffs=1,1"],
    "model": ["basis", "--sigma=0.5,-0.2+0.3j"],
}


def space_args(fam: str) -> list[str]:
    extra = {"hardy": [], "seq": [f"--alpha={ALPHA}"], "bergman": [f"--beta={BETA}"]}
    return [f"--space={fam}", "--p=2", *extra[fam]]


def space_of(fam: str):
    """The Hilbert space of a family, built through the spaces module."""
    from discinterp import spaces

    if fam == "hardy":
        return spaces.hardy(2)
    if fam == "seq":
        return spaces.seq_weighted(2, ALPHA)
    return spaces.bergman_radial(2, BETA)


def random_distinct(rng, n: int, r_max: float, min_sep: float) -> tuple[complex, ...]:
    """n points of modulus <= r_max, pairwise at least min_sep apart."""
    while True:
        moduli = r_max * np.sqrt(rng.uniform(size=n))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pts = tuple(complex(z) for z in moduli * np.exp(1j * angles))
        if all(abs(a - b) >= min_sep for i, a in enumerate(pts) for b in pts[i + 1:]):
            return pts


def transformed(points, rng, coeffs=None):
    """Seeded reflection, rotation and reordering of a node set.

    Radial spaces and H^inf are invariant under all three, so frozen
    references of the pooled set still apply.  Given Taylor coefficients
    of f, also returns those of f moved by the same symmetry, so that the
    interpolant of the moved data is the moved interpolant.
    """
    flip = bool(rng.integers(2))
    w = complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    pts = [complex(re, -im if flip else im) * w for re, im in points]
    pts = tuple(pts[i] for i in rng.permutation(len(pts)))
    if coeffs is None:
        return pts
    c = np.conj(coeffs) if flip else np.asarray(coeffs)
    return pts, c * w ** (-np.arange(len(c)))


def fmt_list(values) -> str:
    out = []
    for z in values:
        z = complex(z)
        out.append(f"{z.real:.17g}{z.imag:+.17g}j")
    return ",".join(out)


def random_scalar(rng) -> complex:
    return complex(rng.uniform(0.2, 3.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass
class Job:
    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[str, list[float]]]


class Library:
    """The discinterp modules, looked up at call time so tracing sees calls."""

    def __init__(self):
        import importlib

        for name in ("cli", "series", "spaces", "modelspace"):
            setattr(self, name, importlib.import_module(f"discinterp.{name}"))

    def cli_main(self, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv + ["--format=json", "--reproducible"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue(), err.getvalue()


def cli_job(lib: Library, kind: str, argv: list[str], check) -> Job:
    def checked(result) -> tuple[str, list[float]]:
        rc, out, err = result
        if rc != 0:
            return f"exit {rc}: {err.strip()[-200:]}", []
        try:
            payload = json.loads(out)
        except ValueError as exc:
            return f"artifact is not JSON: {exc}", []
        return check(payload)

    return Job(kind, " ".join(argv), lambda: lib.cli_main(argv), checked)


def value_of(payload) -> float:
    return float(payload["records"][0]["value"])


def exact_check(expected: float, rtol: float, what: str):
    def check(payload):
        return oracles.close(value_of(payload), expected, rtol, what), []

    return check


def estimate_check(ref: float, upper: float, what: str, lower: float = 0.0):
    def check(payload):
        value = value_of(payload)
        reason = oracles.estimate_ok(value, upper, what)
        if not reason and value < lower * (1.0 - 1e-9):
            reason = f"{what}: estimate {value!r} below proven lower bound {lower!r}"
        return reason, ([value / ref] if not reason else [])

    return check


# ---------------------------------------------------------------------------
# workload: pick
# ---------------------------------------------------------------------------


def pick_jobs(lib: Library, refs: dict, rng, seed: int) -> list[Job]:
    # six n = 4 estimates, two per family: the tail percentile falls inside
    # this group of similar jobs
    jobs = []
    for fam in FAMILIES:
        for k in rng.choice(POOL_SIZE, 2, replace=False):
            entry = refs["pick"]["4"][int(k)]
            pts = transformed(entry["points"], rng)
            frozen = entry["constant"][fam]
            argv = ["constant", f"--sigma={fmt_list(pts)}", *space_args(fam),
                    "--budget=2", f"--seed={seed}"]
            jobs.append(cli_job(lib, "constant", argv,
                                estimate_check(frozen["ref"], frozen["upper"], f"constant {fam} n=4")))
    lam = 0.8 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    argv = ["constant", f"--sigma={fmt_list([lam])}", *space_args("hardy"), "--budget=2"]
    jobs.append(cli_job(lib, "constant", argv, estimate_check(5.0 / 3.0, 5.0 / 3.0, "c({0.8})",
                                                              lower=5.0 / 3.0 * (1.0 - 1e-6))))
    for n in PICK_NS:
        entry = refs["pick"][str(n)][int(rng.integers(POOL_SIZE))]
        pts = transformed(entry["points"], rng)
        frozen = entry["carleson"]
        argv = ["carleson", f"--sigma={fmt_list(pts)}", "--budget=2", f"--seed={seed}"]
        jobs.append(cli_job(lib, "carleson", argv,
                            estimate_check(frozen["ref"], frozen["upper"], f"carleson n={n}",
                                           lower=1.0)))
    # exact Pick data s * B(l_i) with deg B < n: the minimal norm is |s|
    for i in range(24):
        n = PICK_NS[i % 3]
        nodes = random_distinct(rng, n, 0.8, 0.08)
        zeros = [complex(z) for z in random_distinct(rng, int(rng.integers(1, n)), 0.8, 0.0)]
        s = random_scalar(rng)
        values = [s * oracles.blaschke_value(zeros, lam) for lam in nodes]
        argv = ["pick", f"--nodes={fmt_list(nodes)}", f"--values={fmt_list(values)}"]
        jobs.append(cli_job(lib, "pick", argv, exact_check(abs(s), 1e-6, "pick s*B")))
    # two-point data (0, w): the minimal norm is |w| / |b_{l1}(l2)|
    for _ in range(8):
        l1, l2 = random_distinct(rng, 2, 0.8, 0.08)
        w = random_scalar(rng)
        expected = abs(w) / abs(oracles.blaschke_value([l1], l2))
        argv = ["pick", f"--nodes={fmt_list([l1, l2])}", f"--values={fmt_list([0, w])}"]
        jobs.append(cli_job(lib, "pick", argv, exact_check(expected, 1e-6, "pick (0, w)")))
    # quotient norm of s * z^m on n > m distinct nodes is |s|
    for i in range(12):
        n = PICK_NS[i % 3]
        nodes = random_distinct(rng, n, 0.8, 0.08)
        m = int(rng.integers(0, n))
        s = random_scalar(rng)
        coeffs = [0.0] * m + [s]
        argv = ["quotient", f"--coeffs={fmt_list(coeffs)}", f"--sigma={fmt_list(nodes)}"]
        jobs.append(cli_job(lib, "quotient", argv, exact_check(abs(s), 1e-6, "quotient s*z^m")))
    return jobs


# ---------------------------------------------------------------------------
# workload: jet
# ---------------------------------------------------------------------------

# fixed grids: a sweep's cost grows with the sizes in its grid
SWEEP_N_GRIDS = ("2,4,8,16,32,64", "2,3,6,12,24,48,64")
SWEEP_SLOPE = {"hardy": (0.5, 0.15), "seq": ((2 * ALPHA - 1) / 2, 0.2)}  # criteria 8, 9


def sweep_check(refs: dict, fam: str):
    expected, slope_tol = SWEEP_SLOPE[fam]

    def check(payload):
        ratios = []
        for rec in payload["records"]:
            n, r, x = int(rec["n"]), float(rec["r"]), float(rec["x"])
            witness = rec["witness"]
            floor = math.sqrt(x / 32.0)
            if witness is None or witness < floor * (1.0 - 1e-9):
                return f"sweep {fam} witness {witness!r} < sqrt(x/32) = {floor!r} at n={n} r={r}", []
            est = rec["estimate"]
            if est is None:
                continue
            frozen = refs["jet"][fam][str(n)][repr(r)]
            reason = oracles.estimate_ok(est, frozen["upper"], f"sweep {fam} estimate n={n} r={r}")
            if not reason and est < witness * (1.0 - 1e-6):
                reason = f"sweep {fam} estimate {est!r} below its witness {witness!r}"
            if reason:
                return reason, []
            ratios.append(est / frozen["ref"])
        slope = payload["meta"].get("slope_witness")
        if slope is None or abs(slope - expected) > slope_tol:
            return f"sweep {fam} witness slope {slope!r} outside {expected} +- {slope_tol}", []
        return "", ratios

    return check


def jet_jobs(lib: Library, refs: dict, rng, seed: int) -> list[Job]:
    jobs = []
    for fam in ("hardy", "seq"):
        for grid in SWEEP_N_GRIDS:
            argv = ["sweep", *space_args(fam), f"--n-grid={grid}",
                    "--r-grid=0,0.5,0.9", "--estimate-cap=2", "--budget=2", f"--seed={seed}"]
            jobs.append(cli_job(lib, "sweep", argv, sweep_check(refs, fam)))
    for fam, n, r in (("hardy", 2, 0.5), ("hardy", 4, 0.9), ("seq", 3, 0.5), ("seq", 4, 0.9),
                      ("bergman", 2, 0.9), ("bergman", 3, 0.5)):
        lam = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        frozen = refs["jet"][fam][str(n)][repr(r)]
        argv = ["constant", f"--sigma={fmt_list([lam] * n)}", *space_args(fam),
                "--budget=2", f"--seed={seed}"]
        jobs.append(cli_job(lib, "constant", argv,
                            estimate_check(frozen["ref"], frozen["upper"], f"constant {fam} ({r},)*{n}")))
    jobs.append(cli_job(lib, "cs", ["cs", "--coeffs=1,1"],
                        exact_check(oracles.GOLDEN, 1e-10, "cs 1,1")))
    # Caratheodory-Fejer: the first n coefficients of s * B, deg B < n, give |s|
    for n in (2, 3, 4, 5, 6, 8, 10, 12) * 2 + (2, 4, 8):
        zeros = [complex(z) for z in random_distinct(rng, int(rng.integers(1, n)), 0.8, 0.0)]
        s = random_scalar(rng)
        coeffs = s * oracles.blaschke_taylor(zeros, n)
        jobs.append(cli_job(lib, "cs", ["cs", f"--coeffs={fmt_list(coeffs)}"],
                            exact_check(abs(s), 1e-8, "cs s*B")))
    # quotient of s * B on (lam,)*n with deg B < n is |s| (jet path via b_lam)
    for n in (2, 3, 4, 5, 6, 8, 10, 12) * 2 + (2, 3, 4, 6):
        lam = complex(rng.uniform(0.0, 0.9) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        zeros = [complex(z) for z in random_distinct(rng, int(rng.integers(1, n)), 0.6, 0.0)]
        s = random_scalar(rng)
        coeffs = s * oracles.blaschke_taylor(zeros, 97)
        argv = ["quotient", f"--coeffs={fmt_list(coeffs)}", f"--sigma={fmt_list([lam] * n)}"]
        jobs.append(cli_job(lib, "quotient", argv, exact_check(abs(s), 1e-6, "quotient s*B")))
    return jobs


# ---------------------------------------------------------------------------
# workload: model
# ---------------------------------------------------------------------------


def bernstein_check(exact: float | None):
    def check(payload):
        for rec in payload["records"]:
            ratio, bound = float(rec["ratio"]), float(rec["bound"])
            if not (0.0 < ratio <= bound * (1.0 + 1e-12)):
                return f"bernstein ratio {ratio!r} not in (0, bound {bound!r}]", []
        if exact is not None:
            return oracles.close(float(payload["records"][0]["ratio"]), exact, 1e-9,
                                 "bernstein z^n"), []
        return "", []

    return check


def basis_check(sigma: tuple[complex, ...]):
    def check(payload):
        n = len(sigma)
        length = 1 + max(int(rec["j"]) for rec in payload["records"])
        rows = np.zeros((n, length), dtype=complex)
        for rec in payload["records"]:
            rows[int(rec["k"]) - 1, int(rec["j"])] = complex(float(rec["re"]), float(rec["im"]))
        defect = oracles.orthonormal_defect(rows)
        if defect > 1e-8:
            return f"basis not orthonormal: max |E E^H - I| = {defect:.3e}", []
        return "", []

    return check


def library_flow(lib: Library, sigma_points, f_coeffs: np.ndarray) -> dict:
    """README flow: basis -> project -> operator norms -> Banach norms."""
    se, sp, ms = lib.series, lib.spaces, lib.modelspace
    sigma = se.SigmaSet(sigma_points)
    basis = ms.malmquist_basis(sigma)
    f = se.CoeffSeries(f_coeffs)
    tf = ms.project(basis, f)
    spaces = {fam: space_of(fam) for fam in FAMILIES}
    opnorm = {fam: ms.projection_operator_norm(space, sigma) for fam, space in spaces.items()}
    fnorm = {fam: sp.norm(space, f) for fam, space in spaces.items()}
    banach = {
        "H^1": sp.hardy(1), "H^3": sp.hardy(3), "H^inf": sp.hardy(np.inf),
        "l^3_a": sp.seq_weighted(3, ALPHA), "L^3_a": sp.bergman_radial(3, BETA),
    }
    tnorm = {name: sp.norm(space, tf) for name, space in banach.items()}
    rows = np.vstack([e.coeffs for e in basis.series])
    return {"rows": rows, "tf": np.array(tf.coeffs), "opnorm": opnorm, "fnorm": fnorm, "tnorm": tnorm}


def library_check(sigma: tuple[complex, ...], f_coeffs: np.ndarray, frozen: dict):
    def check(out):
        defect = oracles.orthonormal_defect(out["rows"])
        if defect > 1e-8:
            return f"library basis not orthonormal: {defect:.3e}", []
        want = oracles.poly_jet(f_coeffs, sigma)
        got = oracles.poly_jet(out["tf"], sigma)
        err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
        if err > 1e-6:
            return f"project does not reproduce the jet: relative error {err:.3e}", []
        t = out["tnorm"]
        sup = t["H^inf"]
        ratios = []
        for fam, value in out["opnorm"].items():
            reason = oracles.estimate_ok(value, frozen[fam]["upper"], f"opnorm {fam}")
            if reason:
                return reason, []
            if sup > value * out["fnorm"][fam] * (1.0 + 1e-6):
                return f"||Tf||_inf {sup!r} > ||T|| * ||f||_{fam} = {value * out['fnorm'][fam]!r}", []
            ratios.append(value / frozen[fam]["ref"])
        tf = out["tf"]
        grid_max = oracles.circle_max_lower(tf)
        checks = [
            (t["H^1"] <= t["H^3"] * (1 + 1e-9), "H^1 norm above H^3 norm"),
            (t["H^3"] <= sup * (1 + 1e-9), "H^3 norm above H^inf norm"),
            (grid_max * (1 - 1e-9) <= sup <= float(np.sum(np.abs(tf))) * (1 + 1e-9),
             "H^inf norm outside [grid max, l1 norm]"),
            (0 < t["L^3_a"] <= (math.pi / (BETA + 1)) ** (1 / 3) * sup * (1 + 1e-9),
             "L^3_a norm above (pi/(beta+1))^(1/3) ||.||_inf"),
        ]
        weights = (np.arange(len(tf)) + 1.0) ** (-(ALPHA - 1.0))
        l3 = float(np.sum((np.abs(tf) * weights) ** 3) ** (1 / 3))
        checks.append((abs(t["l^3_a"] - l3) <= 1e-9 * l3, "l^3_a norm mismatch"))
        for ok, what in checks:
            if not ok:
                return what, []
        return "", ratios

    return check


def mixed_set(rng, n: int, r: float) -> tuple[complex, ...]:
    """n points with at least one repeat; the first has modulus exactly r."""
    distinct = max(2, n - int(rng.integers(1, 3)))
    base = list(random_distinct(rng, distinct, r, 0.1))
    base[0] = complex(r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    points = list(base)
    while len(points) < n:
        points.append(base[int(rng.integers(len(base)))])
    return tuple(points[i] for i in rng.permutation(n))


def model_jobs(lib: Library, refs: dict, rng, seed: int) -> list[Job]:
    jobs = []
    for _ in range(2):
        argv = ["bernstein", "--samples=12", "--max-n=10", "--max-r=0.95",
                f"--seed={int(rng.integers(1 << 31))}"]
        jobs.append(cli_job(lib, "bernstein", argv, bernstein_check(None)))
    for _ in range(40):
        n = int(rng.integers(2, 11))
        argv = ["bernstein", f"--sigma={fmt_list([0.0] * n)}"]
        jobs.append(cli_job(lib, "bernstein", argv, bernstein_check(float(n - 1))))
    for n, r in ((3, 0.5), (4, 0.7), (5, 0.8), (6, 0.9), (6, 0.95), (8, 0.95)):
        sigma = mixed_set(rng, n, r)
        jobs.append(cli_job(lib, "basis", ["basis", f"--sigma={fmt_list(sigma)}"],
                            basis_check(sigma)))
    # every pooled set of the two r = 0.95 slots, whose costs dominate the
    # round, and one seeded set of each other slot.  f is frozen per pooled
    # set and moved with it: the cost of the H^inf norm depends on how many
    # peaks |Tf| has on the circle, and the symmetry keeps that count.
    for i, slot in enumerate(refs["model"]):
        picks = range(len(slot["sets"])) if slot["r"] >= 0.95 else [int(rng.integers(len(slot["sets"])))]
        for k in picks:
            entry = slot["sets"][k]
            base = np.array([1.0, 1j]) @ np.random.default_rng([i, k]).standard_normal((2, 17))
            sigma, f_coeffs = transformed(entry["points"], rng, base)
            jobs.append(Job("library", f"library n={slot['n']} r={slot['r']}",
                            lambda s=sigma, c=f_coeffs: library_flow(lib, s, c),
                            library_check(sigma, f_coeffs, entry["opnorm"])))
    return jobs


WORKLOADS = {"pick": (1, pick_jobs), "jet": (2, jet_jobs), "model": (3, model_jobs)}


def load_refs() -> dict:
    with open(REFS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def build_jobs(workload: str, seed: int, lib: Library, refs: dict, round_no: int = 0) -> list[Job]:
    """The job list of one round.

    Every round has the same jobs in the same order; the round number
    only re-draws the inputs (node sets, symmetries, coefficients), so the
    estimate ratios of a run average over more inputs.
    """
    tag, make = WORKLOADS[workload]
    seed %= 1 << 63  # numpy generators and the CLI's --seed need seed >= 0
    rng = np.random.default_rng([seed, tag, round_no])
    return make(lib, refs, rng, seed)
