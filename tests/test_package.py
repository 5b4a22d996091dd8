"""Package-level contracts: exported names, immutable and capped cached results."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import stabkit
from stabkit import clifford, commutant, stabilizer
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
        lambda: commutant.orthogonal_stochastic_group(4, 2)[0],
        lambda: commutant.stochastic_lagrangians(4, 2)[-1].basis,
        lambda: commutant.sigma_stack(4, 2),
        lambda: clifford.fourier_gate(3),
        lambda: clifford._phase_diagonal(3),
    ],
    ids=[
        "all_stabilizer_states",
        "orthogonal_stochastic_group",
        "stochastic_lagrangians",
        "sigma_stack",
        "fourier_gate",
        "phase_diagonal",
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
        (commutant.stochastic_lagrangians, (4, 2)),
    ],
    ids=["all_stabilizer_states", "stochastic_lagrangians"],
)
def test_cap_guards_warm_cache(fn, args, monkeypatch):
    fn(*args)
    hits = fn.cache_info().hits
    fn(*args)
    assert fn.cache_info().hits == hits + 1
    monkeypatch.setenv("STABKIT_DIM_CAP", "4")
    with pytest.raises(ResourceCapError):
        fn(*args)


def _run_python(*args):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)


def test_cli_module_runs_without_runtime_warning():
    proc = _run_python("-W", "error::RuntimeWarning", "-m", "stabkit.cli", "--help")
    assert proc.returncode == 0, proc.stderr.decode()


def test_import_and_verify_all_leave_scipy_unloaded(tmp_path):
    # scipy is a test oracle only; the library uses numpy alone
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import stabkit, stabkit.cli\n"
        "assert not scipy_modules(), ('loaded by import', scipy_modules())\n"
        f"code = stabkit.cli.main(['verify-all', '--output', {str(tmp_path / 'out.json')!r}])\n"
        "assert code == 0, code\n"
        "assert not scipy_modules(), ('loaded by verify-all', scipy_modules())\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert (tmp_path / "out.json").stat().st_size > 0


def test_reductions_import_no_numpy_ma():
    """Pivots are inverted from a table, not through `np.unique`, so no lazy
    `numpy.ma` import (about 10 ms and 5 MB) lands inside a reduction."""
    code = (
        "import sys, numpy as np\n"
        "from stabkit import gf\n"
        "gf.rref_stack(np.array([[[1, 2], [2, 1]], [[0, 3], [4, 0]]]), 5)\n"
        "gf.rref_stack(np.ones((2, 2, 70), dtype=np.int64), 2)\n"
        "gf.Subspace([[1, 2], [2, 4]], 3), gf.Subspace([[1, 1]], 2)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = _run_python("-c", code)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().strip() == "False"
