"""Stabilizer states and ensembles, against the dense projector oracles."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from stabkit import stabilizer
from stabkit.clifford import random_clifford
from stabkit.phase_space import ResourceCapError, weyl_action
from stabkit.protocols import clifford_test, robust_hudson_check
from stabkit.stabilizer import (
    all_stabilizer_states,
    isotropic_subspaces,
    lagrangians,
    max_stabilizer_overlap,
    num_stabilizer_states,
)

import oracles
from oracles import (
    measurement_channel,
    sample_stabilizer,
    stabilizer_projector,
    stabilizer_state,
    weyl_scatter,
)


@pytest.mark.parametrize(
    "n,d,count",
    [(1, 2, 6), (2, 2, 60), (1, 3, 12), (2, 3, 360), (1, 5, 30)],
)
def test_stabilizer_state_counts(n, d, count):
    assert num_stabilizer_states(n, d) == count
    states = all_stabilizer_states(n, d)
    assert len(states) == count
    # all normalized and pairwise distinct as projectors
    norms = np.linalg.norm(states, axis=1)
    assert np.abs(norms - 1).max() < 1e-10
    overlaps = np.abs(states.conj() @ states.T)
    off = overlaps - np.eye(count)
    assert off.max() < 1 - 1e-9


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3)])
def test_lagrangian_count(n, d):
    ls = lagrangians(n, d)
    want = 1
    for k in range(1, n + 1):
        want *= d**k + 1
    assert len(ls) == want


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2)])
def test_projector_properties(n, d):
    for M in lagrangians(n, d)[:3]:
        P = stabilizer_projector(M, n, d)
        assert np.abs(P @ P - P).max() < 1e-10
        assert np.abs(P - P.conj().T).max() < 1e-10
        assert abs(np.trace(P) - 1) < 1e-10


def test_stabilizer_state_is_weyl_eigenvector():
    n, d = 1, 3
    for M in lagrangians(n, d):
        psi = stabilizer_state(M, n, d)
        for g in M.basis:
            out = weyl_scatter(g, n, d) @ psi
            phase = out @ psi.conj()
            assert abs(abs(phase) - 1) < 1e-10
            assert np.abs(out - phase * psi).max() < 1e-10


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 5), (2, 5)])
def test_state_list_matches_projector_oracle(n, d):
    # (3, 2) has Lagrangians whose +1 eigenstate has no |0...0> amplitude
    states, want = all_stabilizer_states(n, d), oracles.all_stabilizer_states(n, d)
    assert states.shape == want.shape
    assert np.abs(states - want).max() < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 5)])
def test_lagrangian_blocks_are_joint_eigenbases(n, d):
    dim = d**n
    blocks = all_stabilizer_states(n, d).reshape(-1, dim, dim)
    for M, block in zip(lagrangians(n, d), blocks):
        assert np.abs(block.conj() @ block.T - np.eye(dim)).max() < 1e-12
        for targets, phases in zip(*weyl_action(M.basis, n, d)):
            image = np.zeros_like(block)
            image[:, targets] = phases * block
            eigenvalues = np.einsum("ij,ij->i", block.conj(), image)
            assert np.abs(np.abs(eigenvalues) - 1).max() < 1e-12
            assert np.abs(image - eigenvalues[:, None] * block).max() < 1e-12


def test_state_list_cap_counts_every_amplitude(monkeypatch):
    # 2423520 states of 32 amplitudes: as many entries as an 8807-sided operator
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    with pytest.raises(ResourceCapError, match="dimension 8807 exceeds cap 8192"):
        all_stabilizer_states(5, 2)


def _haar(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize(
    "n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (1, 7)]
)
def test_fidelities_match_state_list_overlaps(n, d):
    # Haar states, and stabilizer states, whose maximum (1) is unique: every
    # state of the list where it has at most 400, a sample of 60 otherwise
    rng = np.random.default_rng(10 * n + d)
    count = num_stabilizer_states(n, d)
    picks = range(count) if count <= 400 else rng.choice(count, 60, replace=False)
    inputs = [_haar(d**n, rng) for _ in range(20)]
    inputs += [all_stabilizer_states(n, d)[i] for i in picks]
    for psi in inputs:
        overlaps = oracles.state_list_overlaps(psi, n, d)
        index, value = max_stabilizer_overlap(psi, n, d)
        assert abs(value - overlaps.max()) <= 1e-12
        top = np.sort(overlaps)[-2:]
        if top[1] - top[0] > 1e-9:
            assert index == int(np.argmax(overlaps))


def test_fidelities_do_not_build_the_state_list():
    rng = np.random.default_rng(5)
    _, U = random_clifford(1, 2, rng)
    before = all_stabilizer_states.cache_info()
    max_stabilizer_overlap(_haar(8, rng), 3, 2)
    max_stabilizer_overlap(_haar(9, rng), 2, 3)
    robust_hudson_check(_haar(9, rng), 3)
    clifford_test(U)
    assert all_stabilizer_states.cache_info() == before


def test_fidelity_tables_are_capped_by_their_entries(monkeypatch):
    # 2423520 states at (5, 2) and 7439040 at (4, 3): sides 1557 and 2728
    assert stabilizer._fidelity_side(5, 2) == 1557
    assert stabilizer._fidelity_side(4, 3) == 2728
    monkeypatch.setenv("STABKIT_DIM_CAP", "1556")
    with pytest.raises(ResourceCapError, match="dimension 1557 exceeds cap 1556"):
        max_stabilizer_overlap(np.eye(32)[0], 5, 2)
    # (3, 2): 1080 entries, a side of 33; its Lagrangians are a side of 50
    monkeypatch.setenv("STABKIT_DIM_CAP", "32")
    with pytest.raises(ResourceCapError, match="dimension 33 exceeds cap 32"):
        stabilizer._fidelity_tables(3, 2)
    monkeypatch.setenv("STABKIT_DIM_CAP", "50")
    points, phases, slots = stabilizer._fidelity_tables(3, 2)
    assert points.shape == phases.shape == slots.shape == (135, 8)
    assert not (points.flags.writeable or phases.flags.writeable or slots.flags.writeable)
    assert points.dtype.itemsize == 1 and phases.dtype.itemsize == 1 and slots.dtype.itemsize == 1


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 5), (3, 3)])
def test_isotropic_counts_match_enumeration(n, d):
    for k in range(n + 1):
        assert stabilizer._isotropic_count(n, d, k) == len(isotropic_subspaces(n, d, k))


def test_lagrangian_cap_refuses_six_qubits_before_the_scan(monkeypatch):
    # 4922775 bases of 6 x 12 entries: a side of 18827
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="dimension 18827 exceeds cap 8192"):
        lagrangians(6, 2)
    assert time.perf_counter() - start < 1.0
    # allowed: 75735 bases at (5, 2) and 91840 at (4, 3)
    assert stabilizer._isotropic_side(5, 2, 5) == 1946
    assert stabilizer._isotropic_side(4, 3, 4) == 1715


def test_max_overlap_t_state():
    t = np.array([1.0, np.exp(1j * math.pi / 4)]) / math.sqrt(2)
    _, val = max_stabilizer_overlap(t, 1, 2)
    assert abs(val - (1 + 1 / math.sqrt(2)) / 2) < 1e-12


def test_max_overlap_stabilizer_is_one():
    states = all_stabilizer_states(1, 3)
    for psi in states[:4]:
        _, val = max_stabilizer_overlap(psi, 1, 3)
        assert abs(val - 1) < 1e-12


def test_measurement_channel_trace_preserving():
    n, d = 1, 3
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = A @ A.conj().T
    rho /= np.trace(rho)
    M = lagrangians(n, d)[0]
    out = measurement_channel(M, rho, n, d)
    assert abs(np.trace(out) - 1) < 1e-10
    assert np.abs(out - out.conj().T).max() < 1e-10


def test_sample_stabilizer_deterministic():
    a = sample_stabilizer(1, 2, np.random.default_rng(42))
    b = sample_stabilizer(1, 2, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_isotropic_subspaces_dims():
    for s in isotropic_subspaces(1, 3, 1):
        assert s.dim == 1
