"""Stabilizer states and ensembles, against the dense projector oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stabkit.phase_space import ResourceCapError, weyl_action
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
