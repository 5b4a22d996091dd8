"""One repetition of a workload, in a fresh interpreter.

run.py starts this script once per repetition, so every repetition pays
the interpreter start, `import stabkit`, input generation and warm-up, as
a command-line user does, and its peak RSS is its own.  The script prints
one JSON line: the time of its first timed call, the timed-phase wall
time, peak RSS, per-operation latencies, failures, counters, cache
statistics and, when traced, the spans.

    python3 perfbench/worker.py --workload NAME --seed N --rep I --trace 0|1
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from workloads import NAMES  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Messages kept per repetition; the failure counts are always complete.
MAX_MESSAGES = 20


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _import_stabkit():
    sys.path.insert(0, SRC)
    import stabkit

    if not os.path.abspath(stabkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"stabkit imported from {stabkit.__file__}, not from {SRC}")
    return stabkit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_stabkit()
    import numpy as np
    import scipy

    from spans import Tracer

    module = importlib.import_module(f"workloads.{args.workload}")
    tracer = Tracer(bool(args.trace))
    rng = np.random.default_rng([args.seed, args.rep])
    os.makedirs(OUT, exist_ok=True)
    failures: dict[str, int] = {}
    messages: list[str] = []

    def fail(mod: str, what: str) -> None:
        failures[mod] = failures.get(mod, 0) + 1
        if len(messages) < MAX_MESSAGES:
            messages.append(what)

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        ops = module.build(rng, tracer, workdir)
        t_first = time.monotonic()
        outputs = []
        latencies = []
        t0 = time.perf_counter()
        c0 = time.process_time()
        for op in ops:
            tracer.begin_op()
            start = time.perf_counter()
            try:
                outputs.append((op, op.run()))
            except Exception:
                outputs.append((op, None))
                fail(tracer.last_call.split(".")[0], f"{op.name}: {traceback.format_exc()}")
            latencies.append(time.perf_counter() - start)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        threads = _threads()

        attempted = len(outputs)
        for op, out in outputs:
            if out is None:
                continue
            try:
                problems = op.check(out)
            except Exception:
                problems = [(op.name.split(".")[0], traceback.format_exc())]
            for mod, what in problems[:1]:
                fail(mod, f"{op.name}: {what}")

    cache = {}
    for name, fn in module.CACHED.items():
        info = getattr(fn, "cache_info", None)
        if info is not None:
            cache[f"{name}.cache_hits"] = info().hits
            cache[f"{name}.cache_misses"] = info().misses

    record = {
        "rep": args.rep,
        "traced": bool(args.trace),
        "t_start": T_START,
        "t_first_call": t_first,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "failures": failures,
        "messages": messages,
        "latencies_s": latencies,
        "counts": dict(tracer.counts),
        "cache": cache,
        "spans": tracer.spans,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
