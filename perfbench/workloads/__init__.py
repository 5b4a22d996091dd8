"""The benchmark's workloads, one module each.

A workload module defines `build(rng, tracer, workdir)`, which does the
set-up (input generation from `rng` and any declared warm-up) and returns
the operations of the timed phase, and `CACHED`, the functions whose
`cache_info()` is reported after the run.  Workloads call stabkit only
through long-lived public entry points, and only through
`tracer.call("<module>.<function>", ...)`, so every layer call can be
traced.
"""

from dataclasses import dataclass
from typing import Callable

NAMES = ("enumerate", "algebra", "protocols", "cli")


@dataclass
class Op:
    """One operation: timed calls into stabkit, then an untimed check.

    `run()` returns the output; `check(output)` returns (module, problem)
    pairs, empty when the output is correct.  An exception in `run` is
    blamed on the module of the last layer call it started.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
