#!/usr/bin/env python3
"""Empirical sharpness of the derivative bound (5/2) n/(1-r) on model spaces.

Draws random node multisets, computes the exact differentiation operator
norm on each model space and reports the largest observed ratio against
the bound, overall and per (n, r)-band.  The monomial case B = z^n is
included as the known floor ratio (n-1)/(2.5 n).
"""

import argparse

import numpy as np

from discinterp import SigmaSet, bernstein_ratio
from discinterp.cli import _at_least, _radius


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=_at_least(0), default=400)
    ap.add_argument("--max-n", type=_at_least(1), default=10)
    ap.add_argument("--max-r", type=_radius, default=0.95)
    ap.add_argument("--seed", type=_at_least(0), default=0)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_sigma = None
    bands: dict[int, float] = {}
    for _ in range(args.samples):
        count = int(rng.integers(1, args.max_n + 1))
        moduli = args.max_r * np.sqrt(rng.uniform(size=count))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        sigma = SigmaSet(tuple(moduli * np.exp(1j * angles)))
        ratio = bernstein_ratio(sigma) / (2.5 * sigma.n / (1.0 - sigma.r))
        bands[sigma.n] = max(bands.get(sigma.n, 0.0), ratio)
        if ratio > worst:
            worst, worst_sigma = ratio, sigma

    print(f"{'n':>3} {'max ratio/bound':>16} {'monomial floor':>15}")
    for n in sorted(bands):
        floor = (n - 1) / (2.5 * n)
        print(f"{n:>3} {bands[n]:>16.4f} {floor:>15.4f}")
    print(f"\noverall worst ratio/bound: {worst:.4f}")
    if worst_sigma is not None:
        print(f"attained at n={worst_sigma.n}, r={worst_sigma.r:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
