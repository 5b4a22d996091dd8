"""Package-level contracts: exported names, immutable and capped cached results."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import stabkit
from stabkit import clifford, commutant, phase_space, stabilizer
from stabkit.phase_space import ResourceCapError


@pytest.mark.parametrize("module", [m for m in stabkit.__all__ if m != "__version__"])
def test_all_names_resolve(module):
    mod = importlib.import_module(f"stabkit.{module}")
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"stabkit.{module}.__all__ lists missing {name!r}"


@pytest.mark.parametrize(
    "get",
    [
        lambda: stabilizer.all_stabilizer_states(1, 2),
        lambda: phase_space.point_operators(1, 3),
        lambda: commutant.orthogonal_stochastic_group(4, 2)[0],
        lambda: clifford.clifford_generators(2, 2)[-1],
    ],
    ids=[
        "all_stabilizer_states",
        "point_operators",
        "orthogonal_stochastic_group",
        "clifford_generators",
    ],
)
def test_cached_arrays_are_read_only(get):
    arr = get()
    before = arr.copy()
    with pytest.raises(ValueError):
        arr.flat[0] = 7
    assert np.array_equal(get(), before)


@pytest.mark.parametrize(
    "fn, args",
    [
        (stabilizer.all_stabilizer_states, (3, 2)),
        (phase_space.point_operators, (1, 3)),
        (clifford.clifford_generators, (3, 2)),
    ],
    ids=["all_stabilizer_states", "point_operators", "clifford_generators"],
)
def test_cap_guards_warm_cache(fn, args, monkeypatch):
    fn(*args)
    hits = fn.cache_info().hits
    fn(*args)
    assert fn.cache_info().hits == hits + 1
    monkeypatch.setenv("STABKIT_DIM_CAP", "4")
    with pytest.raises(ResourceCapError):
        fn(*args)


def test_cli_module_runs_without_runtime_warning():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "stabkit.cli", "--help"],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
