import importlib.util
from pathlib import Path

import numpy as np
import pytest

from discinterp import CoeffSeries, SigmaSet, extremal


def _load_oracles():
    """perfbench/oracles.py, loaded by path: Blaschke references in numpy alone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


def random_sigma(rng, n_max=8, r_max=0.9, n=None, distinct=False, min_sep=5e-2):
    """Random node multiset with max modulus <= r_max."""
    count = int(n) if n is not None else int(rng.integers(1, n_max + 1))
    while True:
        moduli = r_max * np.sqrt(rng.uniform(size=count))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        sigma = SigmaSet(tuple(moduli * np.exp(1j * angles)))
        if not distinct or sigma.min_separation() >= min_sep:
            return sigma


def random_poly(rng, deg, scale=1.0):
    coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return CoeffSeries(scale * coeffs)


def recording_ascent(runs):
    """extremal._ascend, appending the values of each start's climb to runs.

    A point x scores ||F(x)||_2 / denominator(x).  Each row that the update
    moves continues the first start, not yet moved in this step, whose last
    point equals that row.
    """
    ascend = extremal._ascend

    def recording(factor, starts, update, denominator, upper=float("inf")):
        def score(x):
            return extremal._pick_value(factor, x) / denominator(x[None])[0]

        first, last = len(runs), [np.array(x) for x in starts]
        runs.extend([score(x)] for x in last)

        def step(C, X):
            new = update(C, X)
            moved = set()
            for x, y in zip(X, new):
                i = next(
                    i for i, p in enumerate(last) if i not in moved and np.array_equal(p, x)
                )
                moved.add(i)
                last[i] = y
                runs[first + i].append(score(y))
            return new

        return ascend(factor, starts, step, denominator, upper)

    return recording


def sequential_ascent(factor, starts, update, denominator, upper=float("inf")):
    """Reference for extremal._ascend: each start climbs alone, in order, to its own stop.

    upper is ignored, so every start runs to _ASCENT_RTOL or _ASCENT_STEPS.
    """
    stack, best = factor[0], 0.0
    for x in starts:
        n, run_best = x.size, 0.0
        for _ in range(extremal._ASCENT_STEPS):
            U, s, Vh = np.linalg.svd((x @ stack).reshape(n, n))
            den = denominator(x[None])[0]
            value = s[0] / den if den > 1e-14 else 0.0
            best = max(best, value)
            if value <= run_best * (1.0 + extremal._ASCENT_RTOL):
                break
            run_best = value
            c = stack @ np.outer(U[:, 0].conj(), Vh[0].conj()).ravel()
            x = update(c[None], x[None])[0]
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
