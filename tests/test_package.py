"""Package-level contracts: exported names and immutable cached results."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import stabkit
from stabkit import clifford, commutant, phase_space, stabilizer


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
        lambda: phase_space._single_qudit_zx(3)[0],
        lambda: phase_space._single_qudit_zx(3)[1],
        lambda: commutant.orthogonal_stochastic_group(4, 2)[0],
        lambda: clifford.clifford_generators(2, 2)[-1],
    ],
    ids=[
        "all_stabilizer_states",
        "point_operators",
        "single_qudit_z",
        "single_qudit_x",
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
