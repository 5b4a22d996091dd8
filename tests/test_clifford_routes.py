"""Clifford gates applied by gathers against the dense embedded gates.

The oracles embed each gate letter as a dense d^n x d^n matrix (Kronecker
products with identities, a scattered two-qudit gate, the dense Weyl
matrix) and multiply; the library applies a letter to a block of vectors
by a contraction on one qudit axis or a row scatter, and a word by one
row scatter per run of monomial letters.  The
commutant residual, which applies the t copies of each generator letter
on the tn qudits as one word, is checked against the earlier route, which applied the dense
U^{x t} to each probe vector and to its image under R(T), a scipy sparse
matrix, separately, and against the dense commutator at n = 1.  The
residuals of a whole stack, moved as one block per letter and gathered per
row multiplicity, are checked against the one-T route.
"""

from __future__ import annotations

import tracemalloc
from functools import reduce

import numpy as np
import pytest

from stabkit.clifford import apply_letter, conjugate_weyl_check, generator_letters, random_clifford
from stabkit import commutant
from stabkit.commutant import (
    R_matrix,
    commutator_residuals,
    commutes_with_clifford,
    right_defect,
    sigma_stack,
    stochastic_lagrangians,
)
from stabkit.gf import Subspace
from stabkit.phase_space import phase_points

import oracles

SIZES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (2, 5), (4, 2), (6, 2), (3, 3)]

# not isotropic ((e_1, 0) has x.x - y.y = 1), so not a stochastic Lagrangian
NOT_COMMUTANT = Subspace(
    np.array([[1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 1, 0, 0, 1]]), 2, 6
)


def _letters(n, d):
    """Every F, P and CADD letter on n qudits, and W at every phase point."""
    return generator_letters(n) + [("W", tuple(int(v) for v in x)) for x in phase_points(n, d)]


@pytest.mark.parametrize("n,d", SIZES)
def test_each_letter_matches_dense_gate(n, d):
    rng = np.random.default_rng(10 * n + d)
    V = rng.normal(size=(d**n, 3)) + 1j * rng.normal(size=(d**n, 3))
    for letter in _letters(n, d):
        want = oracles.gate_matrix(letter, n, d) @ V
        assert np.abs(apply_letter(letter, V, n, d) - want).max() < 1e-12, letter
        assert np.abs(apply_letter(letter, V[:, 0], n, d) - want[:, 0]).max() < 1e-12, letter


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n,d", SIZES)
def test_word_matrix_matches_dense_product(n, d, seed):
    """The fused runs of `matrix` and the word applied letter by letter, against dense gates."""
    word, U = random_clifford(n, d, np.random.default_rng(seed))
    want = np.eye(d**n, dtype=complex)
    V = np.eye(d**n, dtype=complex)
    for letter in word.letters:
        want = oracles.gate_matrix(letter, n, d) @ want
        V = apply_letter(letter, V, n, d)
    assert np.abs(U - want).max() < 1e-12
    assert np.abs(word.matrix() - want).max() < 1e-12
    assert np.abs(V - want).max() < 1e-12


@pytest.mark.parametrize("n,d", SIZES)
def test_generators_match_dense_embeddings(n, d):
    letters = generator_letters(n)
    want = oracles.clifford_generators(n, d)
    assert len(letters) == len(want) == 2 * n + n * (n - 1)
    for letter, w in zip(letters, want):
        assert np.abs(apply_letter(letter, np.eye(d**n), n, d) - w).max() < 1e-12


def test_unknown_letter_rejected():
    with pytest.raises(ValueError):
        apply_letter(("T", 0), np.eye(2), 1, 2)


def test_apply_tensor_power_on_a_block_matches_each_column():
    rng = np.random.default_rng(3)
    U = oracles.clifford_generators(2, 2)[0]
    block = rng.normal(size=(4**3, 5)) + 1j * rng.normal(size=(4**3, 5))
    moved = oracles.apply_tensor_power(U, block, 3)
    for k in range(5):
        assert np.abs(moved[:, k] - oracles.apply_tensor_power(U, block[:, k], 3)).max() < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3)])
def test_conjugate_weyl_check_matches_whole_conjugates(n, d):
    """The linearity pass reads only the entries (targets[b], b) of each
    conjugate; Gamma and the phases equal those read from the whole
    d^n x d^n products."""
    for seed in range(3):
        _, U = random_clifford(n, d, np.random.default_rng(seed))
        gamma, phases = conjugate_weyl_check(U, n, d)
        want_gamma, want_phases = oracles.conjugate_weyl_check(U, n, d)
        assert np.array_equal(gamma, want_gamma)
        assert np.abs(phases - want_phases).max() < 1e-12


def _residual_per_vector(T, n, d):
    """max |R U^{x t} v - U^{x t} R v| with U^{x t} applied to one vector at a time."""
    t = T.ambient // 2
    R = oracles.R_sum([T], [1.0], n)
    rng = np.random.default_rng(0)
    dim = d ** (t * n)
    # the library's three probes, drawn once for every generator
    probes = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    probes /= np.linalg.norm(probes, axis=0)
    worst = 0.0
    for U in oracles.clifford_generators(n, d):
        for v in probes.T:
            lhs = R @ oracles.apply_tensor_power(U, v, t)
            rhs = oracles.apply_tensor_power(U, R @ v, t)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


@pytest.mark.parametrize("t,d", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_matrix_free_residual_matches_per_vector_route(t, d):
    for T in stochastic_lagrangians(t, d)[:6]:
        got = commutes_with_clifford(T, 2, d)["max_norm"]
        assert got < 1e-9
        assert abs(got - _residual_per_vector(T, 2, d)) < 1e-12


@pytest.mark.parametrize("t,d", [(3, 2), (2, 3), (4, 2), (4, 3)])
def test_one_qudit_residual_matches_per_vector_route(t, d):
    for T in stochastic_lagrangians(t, d)[:6]:
        got = commutes_with_clifford(T, 1, d)["max_norm"]
        assert got < 1e-9
        assert abs(got - _residual_per_vector(T, 1, d)) < 1e-12


def test_one_qudit_negative_control():
    rep = commutes_with_clifford(NOT_COMMUTANT, 1, 2)
    assert rep["max_norm"] > 1e-3
    assert abs(rep["max_norm"] - _residual_per_vector(NOT_COMMUTANT, 1, 2)) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_dense_commutator_vanishes_at_one_qudit(t, d):
    """[R(T), U^{x t}] = 0 exactly, as dense matrices, for every T and generator U."""
    powers = [reduce(np.kron, [U] * t) for U in oracles.clifford_generators(1, d)]
    for T in stochastic_lagrangians(t, d):
        R = R_matrix(T, 1)
        for Ut in powers:
            assert np.abs(R @ Ut - Ut @ R).max() < 1e-9


@pytest.mark.parametrize("t,n,d", [(6, 2, 2), (4, 3, 2)])
def test_residual_with_defects_matches_per_vector_route(t, n, d):
    """T with a nonzero right defect: each nonzero row of R(T) sums k > 1 gathered rows."""
    with_defects = [T for T in stochastic_lagrangians(t, d) if right_defect(T).dim > 0]
    for T in with_defects[:2] + with_defects[-2:]:
        got = commutes_with_clifford(T, n, d)["max_norm"]
        assert got < 1e-9
        assert abs(got - _residual_per_vector(T, n, d)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_matrix_free_negative_control(n):
    rep = commutes_with_clifford(NOT_COMMUTANT, n, 2)
    assert not rep["passed"]
    assert rep["max_norm"] > 1e-3
    assert abs(rep["max_norm"] - _residual_per_vector(NOT_COMMUTANT, n, 2)) < 1e-12


def _stack_matches_one_T_route(t, d, n):
    got = commutator_residuals(sigma_stack(t, d), n, d)
    sigma = stochastic_lagrangians(t, d)
    want = np.array([oracles.commutator_residual(T, n, d) for T in sigma])
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15
    assert got.max() < 1e-9
    # the Subspace objects give the stack's residuals
    assert np.array_equal(commutator_residuals(sigma, n), got)


@pytest.mark.parametrize("t,d,n", [(3, 3, 1), (4, 2, 1), (4, 2, 2), (4, 3, 1), (5, 2, 1)])
def test_stack_residuals_match_one_T_route(t, d, n):
    _stack_matches_one_T_route(t, d, n)


@pytest.mark.parametrize("per_block", [1, 7])
def test_stack_residuals_in_small_blocks(monkeypatch, per_block):
    # the 270 T of Sigma_{5,5}(2) at n = 1 (d^{tn} = 32) one by one, and in
    # blocks of 7, which do not divide 270: the last block holds 4
    monkeypatch.setattr(commutant, "_COMMUTATOR_BLOCK_BYTES", per_block * 2 * 3 * 16 * 32)
    _stack_matches_one_T_route(5, 2, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_negative_control_inside_a_stack(n):
    """NOT_COMMUTANT among elements of Sigma_{3,3}(2): only its residual is large."""
    Ts = list(stochastic_lagrangians(3, 2))
    Ts.insert(3, NOT_COMMUTANT)
    got = commutator_residuals(Ts, n)
    assert got[3] > 1e-3
    assert abs(got[3] - _residual_per_vector(NOT_COMMUTANT, n, 2)) < 1e-12
    assert np.delete(got, 3).max() < 1e-9


def test_stack_commutator_memory_stays_within_its_block_budget():
    """The 4590 T of Sigma_{6,6}(2) at n = 1 take 27 blocks; a block's
    tables, gathers and moved columns stay within a small multiple of the
    budget."""
    stack = sigma_stack(6, 2)
    commutator_residuals(stack[:1], 1, 2)
    tracemalloc.start()
    try:
        got = commutator_residuals(stack, 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.max() < 1e-9
    assert peak < 4 * commutant._COMMUTATOR_BLOCK_BYTES
