"""Stabilizer and Haar moment operators, orbit designs."""

from __future__ import annotations

import math

import numpy as np
import pytest

from stabkit.commutant import R_gram, stochastic_lagrangians
from stabkit.moments import (
    empirical_stab_moment,
    find_design_weights,
    haar_moment_coefficients,
    minimal_projector,
    mixture_design_gap,
    orbit_moment_vector,
    qutrit_fiducial_angle,
    sigma_classes,
    stab_moment_coefficients,
    stab_moment_operator,
    stab_tensor_rank,
)
from stabkit.phase_space import kron_power_vec
from stabkit.stabilizer import all_stabilizer_states

from oracles import (
    class_coefficients,
    design_gap,
    orbit_coefficients,
    permutation_operator,
    permutation_subspaces,
    symmetrizer,
)


@pytest.mark.parametrize("t,n,d", [(2, 1, 2), (3, 1, 2), (3, 1, 3), (4, 1, 2), (2, 2, 3)])
def test_stab_moment_formula_matches_empirical(t, n, d):
    M = stab_moment_operator(t, n, d)
    E = empirical_stab_moment(t, n, d)
    assert np.abs(M - E).max() < 1e-10


@pytest.mark.parametrize("t,n,d", [(3, 1, 2), (3, 1, 3), (4, 1, 2)])
def test_haar_moment_is_scaled_symmetrizer(t, n, d):
    from stabkit.moments import moment_operator

    M = moment_operator(haar_moment_coefficients(t, n, d), t, n, d)
    P = symmetrizer(t, d**n)
    binom = math.comb(d**n + t - 1, t)
    assert np.abs(M - P / binom).max() < 1e-12


@pytest.mark.parametrize(
    "t,d,sizes",
    [
        (3, 3, (6, 2)),
        (4, 2, (24, 6)),
        (4, 3, (24, 32, 24)),
        (6, 2, (720, 2700, 720, 450)),
    ],
)
def test_sigma_class_sizes(t, d, sizes):
    classes = sigma_classes(t, d)
    assert sorted(len(c) for c in classes) == sorted(sizes)
    assert sum(len(c) for c in classes) == len(stochastic_lagrangians(t, d))


def test_permutation_subspaces_distinct():
    assert len(permutation_subspaces(4, 2)) == 24
    assert len(permutation_subspaces(3, 3)) == 6


def test_stabilizer_coefficients_are_class_constant():
    gamma = stab_moment_coefficients(4, 1, 2)
    cc = class_coefficients(gamma, 4, 2)
    assert cc.shape == (2,)


def test_orbit_coefficients_of_stabilizer_state():
    t, n, d = 3, 1, 3
    states = all_stabilizer_states(n, d)
    gamma = orbit_coefficients(states[0], t, n, d)
    assert design_gap(gamma, t, n, d) > 1e-3  # a single orbit is not Haar
    # the stabilizer-ensemble twirl reproduces the uniform coefficients
    m = np.mean([orbit_moment_vector(s, t, n, d) for s in states], axis=0)
    Ts = stochastic_lagrangians(t, d)
    G = R_gram(Ts, n)
    gamma_mix = np.linalg.lstsq(G, m, rcond=None)[0]
    want = stab_moment_coefficients(t, n, d)
    assert np.abs(G @ gamma_mix - G @ want).max() < 1e-10


def test_qutrit_fiducial_angle_pins():
    assert abs(qutrit_fiducial_angle(1) - 0.361130) < 5e-6
    assert abs(qutrit_fiducial_angle(2) - 0.399769) < 5e-6


def test_qutrit_fiducial_gives_3_design():
    n, d, t = 1, 3, 3
    theta = qutrit_fiducial_angle(n)
    psi = np.array([np.cos(theta), -np.sin(theta), 0.0], dtype=complex)
    states = all_stabilizer_states(n, d)
    fiducials = [psi] + [s for s in states[:1]]
    w = find_design_weights(fiducials, t, n, d)
    assert mixture_design_gap(fiducials, w, t, n, d) < 1e-8


def test_design_weights_infeasible_raises():
    # stabilizer fiducials alone cannot make a qubit 4-design
    t, n, d = 4, 1, 2
    states = all_stabilizer_states(n, d)
    with pytest.raises(ValueError):
        find_design_weights([states[0]], t, n, d)


@pytest.mark.parametrize(
    "t,n,d,rank", [(4, 1, 2, 5), (6, 1, 2, 6), (3, 1, 3, 10)]
)
def test_minimal_projector_rank(t, n, d, rank):
    P = minimal_projector(t, n, d)
    assert np.abs(P @ P - P).max() < 1e-9
    eig = np.linalg.eigvalsh((P + P.conj().T) / 2)
    assert int((eig > 0.5).sum()) == rank
    assert stab_tensor_rank(t, n, d) == rank


def test_minimal_projector_fixes_stabilizer_powers():
    t, n, d = 4, 1, 2
    P = minimal_projector(t, n, d)
    for s in all_stabilizer_states(n, d):
        v = kron_power_vec(s, t)
        assert np.abs(P @ v - v).max() < 1e-10


def test_permutation_operator_action():
    dim = 3
    W = permutation_operator((1, 0), dim)
    a = np.array([1.0, 2.0, 0.0])
    b = np.array([0.0, 1.0, 5.0])
    assert np.abs(W @ np.kron(a, b) - np.kron(b, a)).max() < 1e-12


def test_symmetrizer_trace():
    t, dim = 3, 2
    P = symmetrizer(t, dim)
    assert abs(np.trace(P) - math.comb(dim + t - 1, t)) < 1e-12
