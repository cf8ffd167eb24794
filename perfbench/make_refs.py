"""Regenerate perfbench/refs.json: the frozen node-set pools and references.

    python3 perfbench/make_refs.py            # a few minutes on 2 cores

The estimator jobs of the benchmark draw their node sets from these pools
and apply a seeded rotation, reflection and reordering, which leave every
constant below unchanged because all spaces involved are radial.  For
each pooled set the file freezes

* ``ref``: the best value the library attained when the file was made,
  from long multistart searches (the benchmark reports estimate / ref);
* ``upper``: a certified upper bound that no estimate may exceed
  (``projection_operator_norm`` for interpolation constants, the
  Lagrange-sum bound for Carleson constants, sqrt(lambda_max(S) *
  sum (1+|l|)/(1-|l|)) for the interpolation-operator norm itself).

Run it only when the pools change; the references then describe the
library at the commit where it was run.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from discinterp import (  # noqa: E402
    SigmaSet,
    carleson_constant,
    interp_constant,
    kernel_diagonal,
    malmquist_basis,
    projection_operator_norm,
)

import oracles  # noqa: E402
from workloads import (  # noqa: E402
    FAMILIES,
    JET_NS,
    JET_RADII,
    MODEL_SLOTS,
    PICK_NS,
    POOL_SIZE,
    REFS_PATH,
    mixed_set,
    random_distinct,
    space_of,
)

GENERATOR_SEED = 20261017


def opnorm_upper(space, sigma: SigmaSet) -> float:
    basis = malmquist_basis(sigma)
    E = basis.coeff_matrix()
    kap = kernel_diagonal(space, np.arange(E.shape[1]))
    S = (E.conj() * kap) @ E.T
    lam_max = float(np.linalg.eigvalsh(0.5 * (S + S.conj().T))[-1])
    mass = sum((1 + abs(p)) / (1 - abs(p)) for p in sigma.points)
    return float(np.sqrt(lam_max * mass))


def constant_entry(space, sigma: SigmaSet) -> dict:
    best = max(
        interp_constant(space, sigma, budget=budget, seed=seed)
        for budget, seed in ((2, 0), (3 * sigma.n + 6, 1))
    )
    return {"ref": best, "upper": projection_operator_norm(space, sigma)}


def pack(points) -> list[list[float]]:
    return [[p.real, p.imag] for p in points]


def main() -> int:
    rng = np.random.default_rng(GENERATOR_SEED)
    refs: dict = {"generator_seed": GENERATOR_SEED, "pick": {}, "jet": {}, "model": []}

    for n in PICK_NS:
        entries = []
        for _ in range(POOL_SIZE):
            points = random_distinct(rng, n, 0.8, 0.08)
            sigma = SigmaSet(points)
            entry = {"points": pack(points)}
            if n == 4:  # the pick workload's interpolation constants use n = 4
                entry["constant"] = {fam: constant_entry(space_of(fam), sigma) for fam in FAMILIES}
            entry["carleson"] = {
                "ref": max(carleson_constant(sigma, budget=b, seed=1) for b in (2, 32)),
                "upper": oracles.carleson_upper(points),
            }
            entries.append(entry)
            print("pick", n, entry["carleson"]["ref"], flush=True)
        refs["pick"][str(n)] = entries

    for fam in FAMILIES:
        refs["jet"][fam] = {}
        for n in JET_NS:
            refs["jet"][fam][str(n)] = {}
            for r in JET_RADII:
                sigma = SigmaSet((complex(r),) * n)
                refs["jet"][fam][str(n)][repr(r)] = constant_entry(space_of(fam), sigma)
        print("jet", fam, flush=True)

    for n, r in MODEL_SLOTS:
        entries = []
        for _ in range(POOL_SIZE):
            points = mixed_set(rng, n, r)
            sigma = SigmaSet(points)
            opnorm = {}
            for fam in FAMILIES:
                space = space_of(fam)
                best = max(
                    projection_operator_norm(space, sigma),
                    projection_operator_norm(space, sigma, coarse=1 << 15, top=32),
                )
                opnorm[fam] = {"ref": best, "upper": opnorm_upper(space, sigma)}
            entries.append({"points": pack(points), "opnorm": opnorm})
        refs["model"].append({"n": n, "r": r, "sets": entries})
        print("model", n, r, flush=True)

    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
