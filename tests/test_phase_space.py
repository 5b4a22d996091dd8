"""Weyl operators, characteristic functions, and Wigner functions."""

from __future__ import annotations

import numpy as np
import pytest

from stabkit.phase_space import (
    DEFAULT_DIM_CAP,
    ResourceCapError,
    apply_tensor_power,
    char_distribution,
    characteristic_function,
    check_dim,
    kron_power_vec,
    phase_points,
    point_index,
    point_operator,
    point_operators,
    weyl,
    wigner_state,
)


def _rand_state(dim, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3), (1, 5)])
def test_weyl_unitary_and_composition(n, d):
    pts = phase_points(n, d)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = pts[rng.integers(len(pts))]
        y = pts[rng.integers(len(pts))]
        wx, wy = weyl(x, n, d), weyl(y, n, d)
        dim = d**n
        assert np.abs(wx @ wx.conj().T - np.eye(dim)).max() < 1e-12
        # W_x W_y proportional to W_{x+y} with a unit phase
        prod = wx @ wy
        wxy = weyl((x + y) % d, n, d)
        ratio = prod[np.abs(wxy) > 1e-12] / wxy[np.abs(wxy) > 1e-12]
        assert np.abs(np.abs(ratio) - 1).max() < 1e-12
        assert np.abs(ratio - ratio.flat[0]).max() < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3)])
def test_weyl_orthogonality(n, d):
    ws = np.array([weyl(x, n, d) for x in phase_points(n, d)])
    dim = d**n
    gram = np.einsum("xij,yij->xy", ws.conj(), ws)
    assert np.abs(gram - dim * np.eye(len(ws))).max() < 1e-10


def _weyl_matrix_power(x, n, d):
    """W_x as tau^{-p.q} times Kronecker products of matrix powers of Z and X."""
    x = np.asarray(x) % d
    p, q = x[:n], x[n:]
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    shift = np.roll(np.eye(d), 1, axis=0)  # X|a> = |a+1>
    op = np.array([[np.exp(1j * np.pi * (d * d + 1) / d) ** (-int(p @ q))]])
    for i in range(n):
        op = np.kron(op, np.linalg.matrix_power(z, int(p[i])) @ np.linalg.matrix_power(shift, int(q[i])))
    return op


@pytest.mark.parametrize("n,d", [(2, 5), (2, 3), (3, 2)])
def test_weyl_entries_are_exact_roots_of_unity(n, d):
    for x in phase_points(n, d):
        w, ref = weyl(x, n, d), _weyl_matrix_power(x, n, d)
        support = np.abs(ref) > 0.5
        assert not w[~support].any()
        k = np.round(np.angle(ref[support]) * d / np.pi) % (2 * d)
        assert np.abs(w[support] - np.exp(1j * np.pi * k / d)).max() <= 1e-15


def test_char_distribution_normalized_and_bounded():
    for n, d in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        psi = _rand_state(d**n, seed=n * 7 + d)
        p = char_distribution(psi, n, d)
        assert abs(p.sum() - 1) < 1e-10
        assert p.min() > -1e-14
        assert p.max() <= d ** (-n) + 1e-12


def test_char_distribution_zero_state_qubit():
    p = char_distribution(np.array([1.0, 0.0]), 1, 2)
    # support {I, Z} with weight 1/2 each
    idx_id = point_index(np.array([0, 0]), 1, 2)
    idx_z = point_index(np.array([1, 0]), 1, 2)
    want = np.zeros(4)
    want[idx_id] = want[idx_z] = 0.5
    assert np.abs(p - want).max() < 1e-12


@pytest.mark.parametrize("n,d", [(1, 3), (1, 5), (2, 3)])
def test_point_operators(n, d):
    aops = point_operators(n, d)
    dim = d**n
    # Hermitian, unit trace, pairwise orthogonal
    idx = np.arange(len(aops))
    rng = np.random.default_rng(0)
    for k in rng.choice(idx, size=min(6, len(idx)), replace=False):
        A = aops[k]
        assert np.abs(A - A.conj().T).max() < 1e-10
        assert abs(np.trace(A) - 1) < 1e-10
    tr = np.einsum("xij,yji->xy", aops, aops)
    assert np.abs(tr - dim * np.eye(len(aops))).max() < 1e-8


def test_wigner_normalization_and_born_rule():
    for n, d in [(1, 3), (2, 3), (1, 5)]:
        psi = _rand_state(d**n, seed=d + n)
        w = wigner_state(psi, n, d)
        assert abs(w.sum() - 1) < 1e-10
        assert np.abs(w.imag).max() < 1e-10 if np.iscomplexobj(w) else True
        # purity: d^n sum w^2 = tr rho^2 = 1
        assert abs(d**n * (w**2).sum() - 1) < 1e-8


def test_characteristic_function_weyl_covariance():
    n, d = 1, 3
    psi = _rand_state(3, seed=9)
    rho = np.outer(psi, psi.conj())
    c = characteristic_function(rho, n, d)
    assert abs(c[point_index(np.array([0, 0]), n, d)] - d ** (-n / 2) * 1) < 1e-12


def test_apply_tensor_power_matches_dense():
    rng = np.random.default_rng(5)
    d, t = 3, 3
    U = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    v = _rand_state(d**t, seed=2)
    dense = np.kron(np.kron(U, U), U) @ v
    assert np.abs(apply_tensor_power(U, v, t) - dense).max() < 1e-12


def test_kron_power_vec():
    v = np.array([1.0, 2.0])
    assert np.abs(kron_power_vec(v, 2) - np.array([1, 2, 2, 4.0])).max() < 1e-14


def test_dimension_cap():
    with pytest.raises(ResourceCapError):
        check_dim(DEFAULT_DIM_CAP * 2)


def test_dimension_cap_read_at_call_time(monkeypatch):
    monkeypatch.setenv("STABKIT_DIM_CAP", "16")
    with pytest.raises(ResourceCapError, match="exceeds cap 16"):
        check_dim(32)
    monkeypatch.setenv("STABKIT_DIM_CAP", "20000")
    psi = np.array([1.0, 0.0])
    assert kron_power_vec(psi, 14).shape == (2**14,)
