#!/usr/bin/env python3
"""discinterp benchmark: seeded user-shaped jobs, checked by oracles.

    python3 perfbench/run.py --workload pick --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload pick --seed 1 --seconds 15 --trace 1

One process runs one job at a time (a closed loop with one client) from
the repository's ``src/`` tree.  The workload's job list is run in rounds
until ``--seconds`` have passed and at least MIN_ROUNDS rounds are done;
each round's inputs are generated from ``--seed`` and the round number.  Every job's output is checked after it is
timed; a nonzero exit or a failed check counts as a failed job.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer metrics from spans
recorded around calls into each discinterp module (see tracing.py).
The last stdout line is one JSON object; the full result, the run
environment and (traced) the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

SETUP_RUNS = 3
MIN_ROUNDS = 4
# untraced + traced round pairs of a --trace 1 run
TRACE_MIN_PAIRS = 2
TAIL_BEYOND = 10
# a round is not started once this much of the 180 s allowance is spent
ROUND_DEADLINE_S = 150.0
ACCOUNTING_RTOL = 1e-6

SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, {here!r})
from speed import PythonProbe, Speedometer
meter = Speedometer(PythonProbe())
meter.start()
sys.path.insert(0, {src!r})
from discinterp import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main({argv!r})
raw, scaled = meter.stop()
print("ready", rc, raw, scaled, flush=True)
"""


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("pick", "jet", "model"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_environment() -> int:
    """One client: no sweep worker threads and one BLAS thread.

    The jobs' matrices are at most 64 x 64, far below the size where BLAS
    threads help, and an idle BLAS thread spinning on the second core of
    a small machine slows the first.
    """
    os.environ.pop("DISCINTERP_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def measure_setup(warmup_argv: list[str]) -> tuple[list[float], list[float]]:
    """Process start to ready (import, parser, one warm-up job), SETUP_RUNS times.

    Returns the raw times and the times at reference speed; the child
    converts its own import and warm-up, the interpreter start before it
    is counted raw.
    """
    code = SETUP_CODE.format(here=HERE, src=SRC, argv=warmup_argv + ["--format=json"])
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=120)
        fields = line.split()
        if fields[:2] != ["ready", "0"]:
            raise RuntimeError(f"set-up run failed: {line!r} {err.strip()[-500:]}")
        child_raw, child_scaled = float(fields[2]), float(fields[3])
        times.append(elapsed)
        scaled.append(elapsed - child_raw + child_scaled)
    return times, scaled


def blas_threads() -> int | None:
    import ctypes
    import glob

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "DISCINTERP_THREADS": os.environ.get("DISCINTERP_THREADS"),
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Outcome:
    """Attempts, failures and estimate ratios accumulated over rounds."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.ratios: list[float] = []

    def record(self, job, result, error: str | None) -> None:
        self.attempted += 1
        if error is None:
            try:
                error, ratios = job.check(result)
            except Exception as exc:  # a malformed artifact is a failed job
                error, ratios = f"check raised {exc!r}", []
        if error:
            self.failures.append(f"{job.label[:160]}: {error}")
        else:
            self.ratios.extend(ratios)


def run_round(jobs, outcome: Outcome, tracer=None, job_ids=None, meter=None):
    """Run every job once, in order.

    Returns the per-job raw durations and, with a meter, the durations at
    reference speed (otherwise the raw ones again).
    """
    raw, scaled = [], []
    for job in jobs:
        token = None
        if tracer is not None:
            tracer.job = next(job_ids)
            token = tracer.open(f"harness.job:{job.kind}", "harness")
        error = result = None
        if meter:
            meter.start()
        start = time.perf_counter()
        try:
            result = job.run()
        except Exception as exc:
            error = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if meter:
            elapsed, at_reference = meter.stop()
            scaled.append(at_reference)
        if tracer is not None:
            tracer.close(f"harness.job:{job.kind}", token, error is not None)
            tracer.job = 0
        raw.append(elapsed)
        outcome.record(job, result, error)
    return raw, (scaled if meter else raw)


def tail_rank(jobs_per_round: int) -> tuple[float, int]:
    """Percentile with TAIL_BEYOND samples beyond it at MIN_ROUNDS rounds."""
    planned = jobs_per_round * MIN_ROUNDS
    pct = math.floor(100.0 * (planned - TAIL_BEYOND) / planned)
    return pct, planned


def nearest_rank(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    idx = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[idx]


def more_rounds(started: float, measure_start: float, seconds: float, done: int,
                min_rounds: int, last: float) -> bool:
    if not done:
        return True
    if time.perf_counter() - started + last > ROUND_DEADLINE_S:
        return False
    return done < min_rounds or time.perf_counter() - measure_start < seconds


def timing_metrics(rounds: list[list[float]], pct: float) -> dict[str, float]:
    samples = [d for rnd in rounds for d in rnd]
    return {
        "wall_s": statistics.median(sum(rnd) for rnd in rounds),
        "job_s_p50": statistics.median(samples),
        "job_s_tail": nearest_rank(samples, pct),
    }


def run_untraced(jobs_of, seconds: float, started: float) -> tuple[dict, dict, Outcome]:
    from speed import NumpyProbe, Speedometer

    meter = Speedometer(NumpyProbe())
    outcome = Outcome()
    raw: list[list[float]] = []
    scaled: list[list[float]] = []
    measure_start = time.perf_counter()
    while more_rounds(started, measure_start, seconds, len(raw), MIN_ROUNDS,
                      sum(raw[-1]) if raw else 0.0):
        r, s = run_round(jobs_of(len(raw)), outcome, meter=meter)
        raw.append(r)
        scaled.append(s)
    jobs = jobs_of(0)
    pct, planned = tail_rank(len(jobs))
    logs = [math.log(r) for r in outcome.ratios if r > 0]
    metrics = {name: (value, "s") for name, value in timing_metrics(scaled, pct).items()}
    metrics["pass_frac"] = (1.0 - len(outcome.failures) / outcome.attempted, "frac")
    metrics["est_ratio"] = (math.exp(sum(logs) / len(logs)) if logs else 0.0, "ratio")
    detail = {
        "rounds": len(raw),
        "jobs_per_round": len(jobs),
        "job_samples": len(raw) * len(jobs),
        "tail_percentile": pct,
        "tail_planned_samples": planned,
        "raw_timing": timing_metrics(raw, pct),
        "round_wall_s": [sum(rnd) for rnd in scaled],
        "raw_round_wall_s": [sum(rnd) for rnd in raw],
        "job_median_s": {
            f"{i:02d} {job.label[:120]}": statistics.median(rnd[i] for rnd in scaled)
            for i, job in enumerate(jobs)  # labels of round 0
        },
    }
    return metrics, detail, outcome


def run_traced(jobs_of, seconds: float, started: float, illcond: list[int]):
    from speed import NumpyProbe, Speedometer
    from tracing import Tracer

    meter = Speedometer(NumpyProbe(), interval=0)
    tracer = Tracer()
    outcome = Outcome()
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    per_round: list[dict] = []
    accounting: list[float] = []
    spans: list[tuple] = []
    job_ids = iter(range(1, 1 << 40))
    measure_start = time.perf_counter()
    while more_rounds(started, measure_start, seconds, len(traced_walls), TRACE_MIN_PAIRS,
                      untraced_walls[-1] + traced_walls[-1] if traced_walls else 0.0):
        jobs = jobs_of(len(traced_walls))
        untraced_walls.append(sum(run_round(jobs, outcome, meter=meter)[1]))

        tracer.reset()
        tracer.install()
        warned = illcond[0]
        try:
            root = tracer.open("harness.round", "harness")
            traced_walls.append(sum(run_round(jobs, outcome, tracer, job_ids, meter)[1]))
            tracer.close("harness.round", root, False)
        finally:
            tracer.uninstall()
        round_spans = tracer.spans
        wall = round_spans[-1][5] - round_spans[-1][4]
        metrics, error = tracer.layer_metrics(wall)
        metrics["spaces.illcond_warnings"] = illcond[0] - warned
        per_round.append(metrics)
        accounting.append(error)
        offset = measure_start
        spans.extend((len(traced_walls),) + s[:4] + (s[4] - offset, s[5] - offset, s[6])
                     for s in round_spans)
    metrics = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
    metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    detail = {
        "traced_rounds": len(traced_walls),
        "traced_wall_s": traced_walls,
        "untraced_wall_s": untraced_walls,
        "accounting_error": accounting,
    }
    return metrics, detail, outcome, spans, max(accounting)


def write_spans(path: str, spans) -> None:
    keys = ("round", "id", "parent", "job", "name", "start", "end", "error")
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "discinterp", "__init__.py")):
        print(f"perfbench: no discinterp package under {SRC}", file=sys.stderr)
        return 2
    nproc = configure_environment()

    import workloads

    if not args.trace:
        setup_times, setup_scaled = measure_setup(workloads.WARMUP[args.workload])

    sys.path.insert(0, SRC)
    from discinterp.errors import IllConditionedWarning

    illcond = [0]
    show = warnings.showwarning

    def count_warning(message, category, *rest, **kw):
        if issubclass(category, IllConditionedWarning):
            illcond[0] += 1
        else:
            show(message, category, *rest, **kw)

    warnings.simplefilter("always", IllConditionedWarning)
    warnings.showwarning = count_warning

    lib = workloads.Library()
    rc, _, err = lib.cli_main(workloads.WARMUP[args.workload])
    if rc != 0:
        raise RuntimeError(f"warm-up job failed: {err.strip()}")
    refs = workloads.load_refs()

    def jobs_of(round_no: int):
        return workloads.build_jobs(args.workload, args.seed, lib, refs, round_no)

    env = environment(args, nproc)
    ready = time.perf_counter() - started

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    problems = []
    if args.trace:
        values, detail, outcome, spans, accounting = run_traced(jobs_of, args.seconds, started, illcond)
        write_spans(stem + "-spans.jsonl", spans)
        if accounting > ACCOUNTING_RTOL:
            problems.append(f"span accounting: layer self times + harness time differ from "
                            f"the traced wall time by {accounting:.3e} of it")
        metrics = {name: {"value": float(value), "unit": unit_of(name)}
                   for name, value in values.items()}
    else:
        values, detail, outcome = run_untraced(jobs_of, args.seconds, started)
        values["setup_s"] = (statistics.median(setup_scaled), "s")
        detail["raw_timing"]["setup_s"] = statistics.median(setup_times)
        detail["setup_s_runs"] = setup_times
        detail["setup_s_runs_at_reference_speed"] = setup_scaled
        values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in values.items()}
        print(f"# job_s_tail is the p{detail['tail_percentile']} job time over "
              f"{detail['job_samples']} job samples ({detail['jobs_per_round']} jobs x "
              f"{detail['rounds']} rounds); fail_frac = {len(outcome.failures)}/{outcome.attempted}")

    failed = len(outcome.failures)
    result = {
        "environment": env,
        "in_process_ready_s": ready,
        "detail": detail,
        "failures": outcome.failures[:50],
        "problems": problems,
        "metrics": metrics,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print("# environment: " + json.dumps(env, sort_keys=True))
    for line in outcome.failures[:10] + problems:
        print(f"# FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".share"):
        return "frac"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
