"""Stabilizer de Finetti reductions and their bounds."""

from __future__ import annotations

import numpy as np
import pytest

from stabkit.definetti import (
    GramData,
    SymmetricInput,
    anti_bound,
    anti_definetti_check,
    exp_definetti_check,
    gram,
    make_invariant_state,
    mixed_bound,
    pure_bound,
    purify,
    random_span_coefficients,
    reduced_from_coefficients,
    stab_power_decompose,
    trace_distance,
    vectorize,
)
from stabkit.phase_space import ResourceCapError, kron_power_rows, kron_power_vec


def test_gram_lemma_pins():
    data = gram(1, 2, 20)
    assert abs(data.eps - 2 ** (-11 / 2)) < 1e-15
    off = data.G - np.eye(data.num_states)
    assert abs(np.abs(off).max() - 2 ** (-10)) < 1e-15
    assert np.abs(off).max() <= data.eps


def test_gram_spectrum_within_eps_band():
    # the nonzero spectrum of Q = sum (|S><S|)^{x t} equals spec(G)
    for t in (20, 24, 30):
        data = gram(1, 2, t)
        eig = np.linalg.eigvalsh(data.G)
        assert eig.min() >= 1 - 2 * data.eps
        assert eig.max() <= 1 + 2 * data.eps


def test_frame_operator_matches_gram_spectrum():
    data = gram(1, 2, 4)
    vecs = kron_power_rows(data.states, 4)
    eq = np.linalg.eigvalsh(vecs.T @ vecs.conj())
    eg = np.linalg.eigvalsh(data.G)
    nz = eq[np.abs(eq) > 1e-10]
    assert len(nz) <= len(eg)
    # nonzero eigenvalues agree with the top of spec(G)
    assert np.abs(np.sort(nz) - np.sort(eg)[-len(nz):]).max() < 1e-10


def test_decompose_indicator():
    data = gram(1, 2, 13)
    psi = kron_power_vec(data.states[2], 13)
    alpha, res = stab_power_decompose(psi, data)
    assert res < 1e-9
    want = np.zeros(data.num_states)
    want[2] = 1.0
    assert np.abs(alpha - want).max() < 1e-8


def test_decompose_two_term_superposition():
    data = gram(1, 2, 13)
    v = kron_power_vec(data.states[0], 13) + kron_power_vec(data.states[4], 13)
    psi = v / np.linalg.norm(v)
    alpha, res = stab_power_decompose(psi, data)
    assert res < 1e-9
    norm2 = float((alpha.conj() @ data.G @ alpha).real)
    assert abs(norm2 - 1.0) < 1e-9
    # coefficient mass within the eps interval around 1
    mass = float((np.abs(alpha) ** 2).sum())
    assert 1 - 2 * data.eps <= mass <= 1 + 2 * data.eps


def test_reduced_from_coefficients_matches_dense():
    t, n, d, s = 6, 1, 2, 2
    data = gram(n, d, t)
    alpha = random_span_coefficients(data, seed=9)
    vecs = np.array([kron_power_vec(st, t) for st in data.states])
    psi = vecs.T @ alpha
    rho_dense = np.outer(psi, psi.conj()).reshape((2,) * (2 * t))
    for _ in range(t - s):
        rho_dense = np.trace(
            rho_dense, axis1=rho_dense.ndim // 2 - 1, axis2=rho_dense.ndim - 1
        )
    rho_dense = rho_dense.reshape(2**s, 2**s)
    rho = reduced_from_coefficients(alpha, s, data)
    assert np.abs(rho - rho_dense).max() < 1e-12


def test_exp_definetti_coefficient_route():
    for t in (20, 24):
        for s in (1, 2):
            alpha = random_span_coefficients(gram(1, 2, t), seed=t + s)
            rep = exp_definetti_check(alpha, s, t=t, n=1, d=2)
            assert rep["passed"]
            assert not rep["vacuous"]
            assert rep["distance"] <= rep["bound"]


def test_exp_definetti_distance_decays_in_t():
    d1 = exp_definetti_check(
        random_span_coefficients(gram(1, 2, 20), seed=1), 1, t=20, n=1, d=2
    )
    d2 = exp_definetti_check(
        random_span_coefficients(gram(1, 2, 26), seed=1), 1, t=26, n=1, d=2
    )
    assert d2["bound"] < d1["bound"]
    assert d2["distance"] < d1["distance"]


def test_exp_definetti_exact_power_distance_zero():
    t = 20
    data = gram(1, 2, t)
    alpha = np.zeros(data.num_states)
    alpha[3] = 1.0
    rep = exp_definetti_check(alpha, 2, t=t, n=1, d=2)
    assert rep["distance"] < 1e-10


def test_exp_definetti_dense_pure_route():
    src = make_invariant_state(6, 1, 2, "full", seed=0, pure=True)
    rep = exp_definetti_check(src, 1)
    assert rep["decompose_residual"] < 1e-9
    assert not rep["mixed"]
    assert rep["distance"] <= rep["bound"]


def test_exp_definetti_dense_mixed_route():
    src = make_invariant_state(6, 1, 2, "full", seed=1, pure=False)
    rep = exp_definetti_check(src, 1)
    assert rep["mixed"]
    assert rep["decompose_residual"] < 1e-8
    assert rep["distance"] <= rep["bound"]


def test_exp_definetti_needs_full_symmetry():
    src = make_invariant_state(6, 1, 2, "perm", seed=2, pure=True)
    with pytest.raises(ValueError):
        exp_definetti_check(src, 1)


def test_exp_definetti_mixed_coefficient_route():
    t = 24
    alpha = random_span_coefficients(gram(2, 2, t), seed=5)
    rep = exp_definetti_check(alpha, 1, t=t, n=1, d=2, mixed=True)
    assert rep["mixed"] and rep["passed"]


def test_anti_definetti_pure():
    src = make_invariant_state(12, 1, 2, "perm+anti", seed=3, pure=True)
    rep = anti_definetti_check(src, 6)
    assert rep["passed"]
    assert abs(rep["bound"] - anti_bound(1, 12, 6)) < 1e-12
    assert abs(rep["bound"] - 6 * np.sqrt(4) * np.sqrt(0.5)) < 1e-12


def test_anti_definetti_rejects_bad_inputs():
    src = make_invariant_state(12, 1, 2, "perm+anti", seed=4, pure=True)
    with pytest.raises(ValueError):
        anti_definetti_check(src, 4)  # not a multiple of 6
    bad = SymmetricInput(t=12, n=1, d=3, state=src.state, symmetry="perm+anti")
    with pytest.raises(ValueError):
        anti_definetti_check(bad, 6)


def test_anti_bound_values():
    assert abs(anti_bound(1, 12, 6) - 6 * np.sqrt(4) * np.sqrt(0.5)) < 1e-12
    assert abs(anti_bound(1, 12, 6, mixed=True) - 6 * np.sqrt(2) * 2 * np.sqrt(0.5)) < 1e-12
    assert anti_bound(1, 1200, 6) < 1.0  # informative at large t


def test_bound_formulas():
    assert abs(pure_bound(1, 2, 20, 1) - 2 * 2**4.5 * 2 ** (-9.5)) < 1e-12
    assert mixed_bound(1, 2, 24, 1) > pure_bound(1, 2, 24, 1)


def test_purify_examples():
    rho = np.diag([1.0, 0.0])
    v = purify(rho)
    assert np.abs(v - np.array([1, 0, 0, 0])).max() < 1e-12
    bell = purify(np.eye(2) / 2)
    assert abs(np.linalg.norm(bell) - 1) < 1e-12
    assert abs(abs(bell[0]) - 1 / np.sqrt(2)) < 1e-12
    assert abs(abs(bell[3]) - 1 / np.sqrt(2)) < 1e-12
    with pytest.raises(ValueError):
        purify(np.diag([1.0, -0.5]))


def test_purification_symmetry_equivalence():
    # (O x O~) vec(rho^{1/2}) = vec(rho^{1/2})  iff  O rho O^dag = rho
    rng = np.random.default_rng(41)
    dim = 4
    P = np.eye(dim)[[1, 0, 3, 2]]  # permutation unitary with real entries
    # invariant rho: twirl a random density matrix
    A = rng.normal(size=(dim, dim))
    rho = A @ A.T
    rho = rho + P @ rho @ P.T
    rho /= np.trace(rho)
    v = purify(rho)
    assert np.abs(np.kron(P, P.conj()) @ v - v).max() < 1e-10
    # non-invariant control
    B = rng.normal(size=(dim, dim))
    tau = B @ B.T
    tau /= np.trace(tau)
    w = purify(tau)
    assert np.abs(np.kron(P, P.conj()) @ w - w).max() > 1e-3


def test_vectorize_convention():
    B = np.array([[1, 2], [3, 4]])
    assert np.array_equal(vectorize(B), np.array([1, 2, 3, 4]))


def test_gram_data_fields():
    data = gram(1, 3, 5)
    assert isinstance(data, GramData)
    assert data.num_states == 12
    assert data.G.shape == (12, 12)
    assert np.abs(np.diag(data.G) - 1.0).max() < 1e-12


def test_mixed_twirl_cap_counts_the_pair_tables(monkeypatch):
    # perm at (t, n, d) = (2, 1, 2): dim 4, two pair tables of 16 entries (side 6)
    monkeypatch.setenv("STABKIT_DIM_CAP", "5")
    assert make_invariant_state(2, 1, 2, "perm", seed=0).state.shape == (4, 4)
    with pytest.raises(ResourceCapError, match="dimension 6 exceeds cap 5"):
        make_invariant_state(2, 1, 2, "perm", seed=0, pure=False)
    monkeypatch.setenv("STABKIT_DIM_CAP", "6")
    assert make_invariant_state(2, 1, 2, "perm", seed=0, pure=False).state.shape == (4, 4)


def test_exp_definetti_refuses_more_copies_than_t():
    alpha = random_span_coefficients(gram(1, 2, 2), 0)
    with pytest.raises(ValueError, match="s=3 must lie in 1..t=2"):
        exp_definetti_check(alpha, 3, t=2, n=1, d=2)
