#!/usr/bin/env python3
"""Growth-rate study: witness lower bounds against n/(1-r).

Sweeps the single-point classes sigma_{r,n} over an n-grid and an r-grid
for the Hardy(2) and weighted l^2(alpha) scales, prints the per-cell table
and the log-log slopes fitted against x = n/(1-r) over every cell at once
(expected: 1/2 for Hardy(2), (2 alpha - 1)/2 for the weighted scale).
Every witness divides by the least norm with its jet.  A weighted cell
with 2 alpha - 1 >= 3 takes that norm, and its estimate, from the Stein
Gram of (r,)*n, so near the circle it can diverge or have no Cholesky
factor in double precision; it prints "-" and is left out of the fit.
"""

import argparse

from discinterp import bound_sweep, hardy, seq_weighted
from discinterp.cli import _at_least, _radius


def _grid(entry):
    """argparse type for a comma-separated list, each entry through ``entry``."""
    return lambda text: [entry(tok) for tok in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha", type=float, default=1.5)
    ap.add_argument("--n-grid", type=_grid(_at_least(1)), default="4,8,16,32,64")
    ap.add_argument("--r-grid", type=_grid(_radius), default="0.5",
                    help="comma-separated radii; the slope is fitted over n and r jointly")
    ap.add_argument("--estimate-cap", type=_at_least(0), default=0,
                    help="also run the constant estimator for n up to this cap")
    ap.add_argument("--budget", type=_at_least(1), default=8)
    ap.add_argument("--seed", type=_at_least(0), default=0)
    args = ap.parse_args()

    for space, expected in (
        (hardy(2), 0.5),
        (seq_weighted(2, args.alpha), (2 * args.alpha - 1) / 2),
    ):
        res = bound_sweep(
            space, args.n_grid, args.r_grid,
            budget=args.budget, estimate_cap=args.estimate_cap, seed=args.seed,
        )
        print(f"\n{space.label()}  (expected slope {expected:.3f})")
        print(f"{'n':>4} {'x=n/(1-r)':>10} {'witness':>10} {'estimate':>10} {'lower':>10}")
        for row in res.rows:  # n-major, then r: x = n/(1-r) tells the radii apart
            wit, est = (f"{v:.4f}" if v is not None else "-" for v in (row.witness, row.estimate))
            print(f"{row.n:>4} {row.x:>10.2f} {wit:>10} {est:>10} {row.lower:>10.4f}")
        if res.slope_witness is not None:
            print(f"fitted witness slope: {res.slope_witness:.4f}")
        if res.slope_estimate is not None:
            print(f"fitted estimate slope: {res.slope_estimate:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
