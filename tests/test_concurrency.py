"""Library calls and the CLI give the same bits from several threads as alone.

The CLI calls share the one parser that cli.main builds per process.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from discinterp import (
    CoeffSeries,
    SigmaSet,
    bergman_radial,
    hardy,
    interp_constant,
    norm,
    projection_operator_norm,
)
from discinterp import cli, spaces

SIGMA = SigmaSet((0.3, -0.5, 0.2j, 0.3))
POLY = CoeffSeries(0.7 ** np.arange(40) * np.exp(0.3j * np.arange(40)))
SWEEP = [
    "sweep", "--n-grid", "2,3", "--r-grid", "0,0.5",
    "--estimate-cap", "2", "--budget", "4", "--reproducible",
]
BOUNDS = [
    "bounds", "--space", "seq", "--p", "inf", "--alpha", "2", "--n", "3", "--r", "0.5",
    "--reproducible",
]


def _jobs(tmp_path, tag):
    def cli_job(name, argv):
        def job():
            out = tmp_path / f"{tag}-{name}"
            assert cli.main(argv + ["--output", str(out)]) == 0
            return out.read_bytes()

        return job

    jobs = []
    for i in range(3):
        jobs += [
            lambda: interp_constant(hardy(2), SIGMA, budget=6, seed=1),
            lambda: projection_operator_norm(hardy(2), SIGMA),
            lambda: norm(bergman_radial(3, 1), POLY),  # through the cached _radial_rule
            cli_job(f"sweep{i}.csv", SWEEP),
            cli_job(f"sweep{i}.json", SWEEP + ["--format", "json"]),
        ]
    # cheap runs, so that several threads are inside the CLI at once
    jobs += [cli_job(f"bounds{i}.csv", BOUNDS + ["--seed", str(i)]) for i in range(24)]
    return jobs


def test_threads_reproduce_sequential_results(tmp_path):
    spaces._radial_rule.cache_clear()
    cli._parser.cache_clear()
    alone = [job() for job in _jobs(tmp_path, "seq")]
    cli_calls = cli._parser.cache_info().hits + 1
    spaces._radial_rule.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(job) for job in _jobs(tmp_path, "thr")]
            pooled = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert pooled == alone
    # the sequential pass built the one parser; every pooled call reused it
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 2 * cli_calls - 1)
