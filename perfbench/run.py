#!/usr/bin/env python3
"""stabkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The run starts worker.py once per
repetition, one process at a time, with BLAS pinned to one thread, until
`--seconds` of repetitions are used (at least three, four when traced).
Each repetition makes its inputs from (seed, repetition), sets up in a
fresh interpreter and times its operations; the checks of every output
run after its timed phase.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported:
medians over the repetitions of the timed-phase wall time, of the set-up
time (process start to the first timed call) and of peak RSS.  With
--trace 1 the repetitions alternate between untraced and traced, and the
per-layer metrics of BENCHMARK.json are reported: medians over the traced
repetitions of the spans' self time, calls and counters, plus the state
latency percentiles of the untraced repetitions and the tracing overhead.

Every metric is printed as "name value unit"; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  A record of
the run (environment, every repetition and, when traced, every span) is
written to perfbench/out/.  The exit code is nonzero when any check
failed, when a repetition crashed, or when no source tree is present.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import layer_totals
from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

MIN_REPS = {0: 3, 1: 4}
# A run stops starting repetitions at this age, well inside the 180 s limit.
HARD_LIMIT_S = 150.0
BLAS_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
MODULES = ("gf", "stabilizer", "clifford", "commutant", "moments", "phase_space",
           "protocols", "definetti", "cli")


def run_rep(workload: str, seed: int, rep: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--trace", str(int(traced))]
    env = dict(os.environ, **BLAS_THREADS)
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout)
    t_end = time.monotonic()
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"repetition {rep} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record["t_first_call"] - t_spawn
    record["process_s"] = t_end - t_spawn
    return record


def run_reps(workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        left = HARD_LIMIT_S - (time.monotonic() - start)
        reps.append(run_rep(workload, seed, len(reps), traced, timeout=max(left, 1.0)))
        elapsed = time.monotonic() - start
        expected = statistics.median(r["process_s"] for r in reps)
        if elapsed + expected > HARD_LIMIT_S:
            return reps
        # start another repetition only if it should end by `seconds`
        # give or take half a repetition
        if len(reps) >= MIN_REPS[trace] and elapsed + expected / 2 > seconds:
            return reps


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(reps: list[dict]) -> dict:
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(names: list[str], reps: list[dict], attempted: int, failed: int) -> dict:
    """Every per-layer metric named in BENCHMARK.json; zero where unused."""
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    totals = [layer_totals(r["spans"]) for r in traced]
    latencies = [x * 1e3 for r in plain for x in r["latencies_s"]]
    failures = {m: sum(r["failures"].get(m, 0) for r in reps) for m in MODULES}

    def median_of(pick) -> float:
        return statistics.median(pick(i) for i in range(len(traced)))

    special = {
        "state_p50_ms": lambda: percentile(latencies, 50),
        "state_p90_ms": lambda: percentile(latencies, 90),
        "state_samples": lambda: len(latencies),
        "fail_frac": lambda: failed / attempted,
        "trace_overhead_s": lambda: (statistics.median(r["wall_s"] for r in traced)
                                     - statistics.median(r["wall_s"] for r in plain)),
    }
    out = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if name in special:
            out[name] = special[name]()
        elif kind == "busy_s":
            out[name] = median_of(lambda i: totals[i][0].get(base, 0.0))
        elif kind == "calls":
            out[name] = median_of(lambda i: totals[i][1].get(base, 0))
        elif kind == "failures":
            out[name] = failures[base]
        elif kind in ("cache_hits", "cache_misses"):
            out[name] = median_of(lambda i: traced[i]["cache"].get(name, 0))
        else:
            out[name] = median_of(lambda i: traced[i]["counts"].get(name, 0))
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for fn in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, fn)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def commit() -> str:
    # git would search the parent directories of a tree that is not a
    # checkout of its own, and could name the commit of another repository
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.decode().strip() if proc.returncode == 0 else "unknown"


def environment(reps: list[dict]) -> dict:
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "platform": platform.platform(),
        "versions": reps[0]["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "max_threads_in_a_repetition": max(r["threads"] for r in reps),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "stabkit", "__init__.py")):
        print(f"no stabkit source tree under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}

    try:
        reps = run_reps(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = per_layer(list(units), reps, attempted, failed)
    else:
        metrics = end_to_end([r for r in reps if not r["traced"]])

    os.makedirs(OUT, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(reps),
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "repetitions": reps,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)

    for r in reps:
        for message in r["messages"]:
            print(f"FAILED rep {r['rep']}: {message}", file=sys.stderr)
    print(f"workload {args.workload}: {len(reps)} repetitions, {attempted} operations, "
          f"{failed} failed; record in {os.path.relpath(path, ROOT)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    if not args.trace:
        plain = [r for r in reps if not r["traced"]]
        latencies = [x * 1e3 for r in plain for x in r["latencies_s"]]
        print(f"(fail_frac {failed / attempted!r} ratio; operation latency p50 "
              f"{percentile(latencies, 50)!r} ms, p90 {percentile(latencies, 90)!r} ms "
              f"over {len(latencies)} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
