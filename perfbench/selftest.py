#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

For each workload it runs one job of every kind, untraced and traced,
through ``run.main`` with a single round and a single set-up run, and
checks that the printed metrics are exactly those BENCHMARK.json names.
It then proves the oracles bite: each job's real output passes its
check, and a deliberately perturbed copy (wrong value, broken basis,
nonzero exit) fails it.  Exit status 0 means every check held.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def perturbed(kind: str, result):
    """A wrong copy of a job result that the job's oracle must reject."""
    if kind == "library":
        bad = dict(result)
        bad["tf"] = result["tf"].copy()
        bad["tf"][0] += 0.1
        return bad
    rc, out, err = result
    payload = json.loads(out)
    rec = payload["records"]
    if kind in ("constant", "carleson"):
        rec[0]["value"] *= 1e3  # far above any certified upper bound
    elif kind in ("pick", "quotient", "cs"):
        rec[0]["value"] *= 1.01
    elif kind == "sweep":
        rec[-1]["witness"] *= 1e-3
    elif kind == "bernstein":
        rec[0]["ratio"] = rec[0]["bound"] * 1.5
    elif kind == "basis":
        rec[0]["re"] += 0.1
    else:
        raise ValueError(kind)
    return rc, json.dumps(payload), err


def one_per_kind(jobs):
    seen, out = set(), []
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            out.append(job)
    return out


def main() -> int:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bench.configure_environment()
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    import workloads

    build = workloads.build_jobs
    workloads.build_jobs = lambda *a, **k: one_per_kind(build(*a, **k))
    bench.MIN_ROUNDS = 1
    bench.SETUP_RUNS = 1
    bench.TRACE_MIN_PAIRS = 1
    problems = []
    for workload in ("pick", "jet", "model"):
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = bench.main(["--workload", workload, "--seed", "0",
                                 "--seconds", "0", "--trace", str(trace)])
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            names = set(result["metrics"])
            if rc != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: run not clean: {result}")
            if names != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(expected[trace] - names)}, "
                                f"extra {sorted(names - expected[trace])}")
            print(f"{workload} trace={trace}: {len(names)} metrics, "
                  f"{result['attempted']} jobs, correct={result['correct']}")

        lib = workloads.Library()
        for job in one_per_kind(build(workload, 0, lib, workloads.load_refs())):
            before = len(problems)
            result = job.run()
            reason, _ = job.check(result)
            if reason:
                problems.append(f"{workload} {job.kind}: real output rejected: {reason}")
            reason, _ = job.check(perturbed(job.kind, result))
            if not reason:
                problems.append(f"{workload} {job.kind}: perturbed output accepted")
            if job.kind != "library":
                reason, _ = job.check((1, "", "simulated failure"))
                if not reason:
                    problems.append(f"{workload} {job.kind}: nonzero exit accepted")
            if len(problems) == before:
                print(f"{workload} {job.kind}: real output accepted, perturbed output rejected")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
