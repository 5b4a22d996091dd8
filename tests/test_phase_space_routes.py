"""The shifted-diagonal DFT routes against dense Weyl-stack oracles.

The oracles below contract explicitly against the stack of all d^{2n} Weyl
matrices (d^{4n} entries) or against the d^{2n} x d^{2n} symplectic Fourier
kernel; the library computes the same quantities with one DFT each.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from stabkit.clifford import random_clifford
from stabkit.phase_space import (
    ResourceCapError,
    char_distribution,
    characteristic_function,
    omega,
    phase_points,
    symplectic_fourier,
    wigner_state,
)
from stabkit.protocols import bell_difference_distribution, simulate_algorithm1

from oracles import point_operators, weyl_scatter

SIZES = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 5), (2, 5)]


def _weyl_stack(n, d):
    return np.array([weyl_scatter(x, n, d) for x in phase_points(n, d)])


def _fourier_kernel(n, d):
    """F[x, y] = omega^{-[x, y]} over all phase-point pairs."""
    pts = phase_points(n, d)
    p, q = pts[:, :n], pts[:, n:]
    return omega(d) ** (-(p @ q.T - q @ p.T))


def _dense_char_distribution(psi, n, d):
    expect = np.einsum("i,xij,j->x", psi.conj(), _weyl_stack(n, d), psi)
    return np.abs(expect) ** 2 / d**n


def _dense_point_operators(n, d):
    return np.einsum("xy,yji->xij", _fourier_kernel(n, d), _weyl_stack(n, d).conj()) / d**n


def _dense_wigner(psi, n, d):
    aops = _dense_point_operators(n, d)
    return np.einsum("i,xij,j->x", psi.conj(), aops, psi).real / d**n


def _xor_bell(p):
    """q(a) = sum_x p(x) p(x + a); x + a over Z_2^{2n} is XOR of flat indices."""
    m = len(p)
    return np.array([p @ p[np.bitwise_xor(np.arange(m), ia)] for ia in range(m)])


def _dense_bell_check(psi, n):
    """q(a) = 4^{-n} sum_x (-1)^{[a,x]} <psi|W_x|psi>^4."""
    expect = np.einsum("i,xij,j->x", psi.conj(), _weyl_stack(n, 2), psi)
    signs = _fourier_kernel(n, 2).real.round()
    return signs @ (expect**4).real / 4**n


def _eigh_simulate(psi, shots, seed):
    """Accepted fraction of the six-copy Monte-Carlo with explicit collapse."""
    rng = np.random.default_rng(seed)
    n = round(math.log2(len(psi)))
    q = bell_difference_distribution(psi, check=False)
    pts = phase_points(n, 2)
    accepted = 0
    for ia in rng.choice(len(q), size=shots, p=q):
        vals, vecs = np.linalg.eigh(weyl_scatter(pts[ia], n, 2))
        p_plus = float((np.abs(vecs.conj().T @ psi) ** 2)[vals > 0].sum())
        first = rng.random() < p_plus
        second = rng.random() < p_plus
        accepted += first == second
    return accepted / shots


def _haar(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _qubit_inputs(n, seed):
    """A random stabilizer state (many zeros in p) and a Haar-random state."""
    _, U = random_clifford(n, 2, np.random.default_rng(seed))
    return [U[:, 0], _haar(2**n, np.random.default_rng(seed))]


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3), (2, 3), (1, 5)])
def test_characteristic_function_is_weyl_trace(n, d):
    rng = np.random.default_rng(n * 10 + d)
    B = rng.normal(size=(d**n, d**n)) + 1j * rng.normal(size=(d**n, d**n))
    want = [np.trace(weyl_scatter(x, n, d).conj().T @ B) * d ** (-n / 2) for x in phase_points(n, d)]
    assert np.abs(characteristic_function(B, n, d) - np.array(want)).max() < 1e-12


@pytest.mark.parametrize("n,d", SIZES)
def test_char_distribution_matches_weyl_stack(n, d):
    psi = _haar(d**n, np.random.default_rng(n + d))
    assert np.abs(char_distribution(psi, n, d) - _dense_char_distribution(psi, n, d)).max() < 1e-14


@pytest.mark.parametrize("n,d", SIZES)
def test_wigner_state_matches_point_operator_stack(n, d):
    psi = _haar(d**n, np.random.default_rng(2 * n + d))
    assert np.abs(wigner_state(psi, n, d) - _dense_wigner(psi, n, d)).max() < 1e-14


@pytest.mark.parametrize("n,d", SIZES)
def test_point_operators_match_fourier_kernel(n, d):
    assert np.abs(point_operators(n, d) - _dense_point_operators(n, d)).max() < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (1, 5)])
def test_symplectic_fourier_matches_kernel(n, d):
    rng = np.random.default_rng(d)
    f = rng.normal(size=(d ** (2 * n), 2)) + 1j * rng.normal(size=(d ** (2 * n), 2))
    assert np.abs(symplectic_fourier(f, n, d) - _fourier_kernel(n, d) @ f).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bell_routes_match_xor_loop_and_dense_check(n):
    for psi in _qubit_inputs(n, seed=n):
        q = bell_difference_distribution(psi, check=True)
        p = _dense_char_distribution(psi, n, 2)
        assert np.abs(q - _xor_bell(p)).max() < 1e-14
        assert np.abs(q - _dense_bell_check(psi, n)).max() < 1e-14
        assert q.min() >= 0.0


@pytest.mark.parametrize("n,seed", [(1, 3), (2, 5), (3, 7), (4, 11)])
def test_simulate_algorithm1_matches_eigh_collapse(n, seed):
    for psi in _qubit_inputs(n, seed):
        assert simulate_algorithm1(psi, 400, seed).p_accept == _eigh_simulate(psi, 400, seed)


def test_point_operators_cap_guards_the_stack(monkeypatch):
    # the stack holds d^{2n} operators of dimension d^n
    point_operators.cache_clear()
    monkeypatch.setenv("STABKIT_DIM_CAP", "16")
    with pytest.raises(ResourceCapError, match="requested operator dimension 25"):
        point_operators(1, 5)


def test_eight_qubit_routes_stay_small():
    n = 8
    psi = _haar(2**n, np.random.default_rng(8))
    tracemalloc.start()
    try:
        p = char_distribution(psi, n, 2)
        q = bell_difference_distribution(psi, check=True)
        report = simulate_algorithm1(psi, 1000, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert abs(p.sum() - 1.0) < 1e-10 and abs(q.sum() - 1.0) < 1e-10
    assert report.shots == 1000
