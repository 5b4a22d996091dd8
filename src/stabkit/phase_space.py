"""Dense realization of Weyl operators, characteristic and Wigner functions.

Phase points x = (p, q) live in Z_d^{2n}.  Phase-space functions are
indexed by the flat index of the digit row (p, q) (see `gf.flat_index`),
i.e. index = int(p, base d) * d^n + int(q, base d).
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .gf import all_vectors, flat_index

DEFAULT_DIM_CAP = 2**13


class ResourceCapError(RuntimeError):
    pass


def freeze(a: np.ndarray) -> np.ndarray:
    """Make `a` read-only, so a cached result cannot be edited in place."""
    a.setflags(write=False)
    return a


def check_dim(dim: int):
    """Raise ResourceCapError if dim exceeds the cap.

    The cap is STABKIT_DIM_CAP, read on every call, or DEFAULT_DIM_CAP.
    """
    cap = int(os.environ.get("STABKIT_DIM_CAP", DEFAULT_DIM_CAP))
    if dim > cap:
        raise ResourceCapError(f"requested operator dimension {dim} exceeds cap {cap}")


def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def tau(d: int) -> complex:
    """tau = exp(i pi (d^2+1)/d), a primitive D-th root with tau^2 = omega."""
    return np.exp(1j * np.pi * (d * d + 1) / d)


def phase_points(n: int, d: int) -> np.ndarray:
    """All d^{2n} points (p, q), in flat index order."""
    return all_vectors(2 * n, d)


def point_index(x, n: int, d: int) -> int:
    return int(flat_index(np.asarray(x, dtype=np.int64) % d, d))


def symplectic_products(n: int, d: int) -> np.ndarray:
    """Integer matrix [x, y] = p.q' - q.p' over all phase-point pairs, not reduced."""
    pts = phase_points(n, d)
    p, q = pts[:, :n], pts[:, n:]
    return p @ q.T - q @ p.T


def linear_index_map(O: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """perm with |x> -> |O x> per base-d layer, for x in (Z_d^n)^t.

    perm[i] is the flat index of O x for the x of flat index i; O acts on the
    t blocks of n digits.  d is the alphabet size and need not be prime when
    O is a permutation matrix.
    """
    X = all_vectors(t * n, d).reshape(-1, t, n)
    Y = np.einsum("kj,xjl->xkl", np.asarray(O) % d, X) % d
    return flat_index(Y.reshape(-1, t * n), d)


@lru_cache(maxsize=None)
def _single_qudit_zx(d: int) -> tuple[np.ndarray, np.ndarray]:
    w = omega(d)
    z = np.diag(w ** np.arange(d))
    x = np.zeros((d, d), dtype=complex)
    for a in range(d):
        x[(a + 1) % d, a] = 1.0  # X|a> = |a+1>
    return freeze(z), freeze(x)


def weyl(x, n: int, d: int) -> np.ndarray:
    """W_x = tau^{-p.q} (X) Z^{p_i} X^{q_i} on n qudits."""
    x = np.asarray(x, dtype=np.int64) % d
    p, q = x[:n], x[n:]
    z1, x1 = _single_qudit_zx(d)
    op = np.array([[tau(d) ** (-int(p @ q))]])
    for i in range(n):
        factor = np.linalg.matrix_power(z1, int(p[i])) @ np.linalg.matrix_power(x1, int(q[i]))
        op = np.kron(op, factor)
    return op


@lru_cache(maxsize=32)
def weyl_all(n: int, d: int) -> np.ndarray:
    """Stack of all Weyl operators, shape (d^{2n}, d^n, d^n), in flat index order."""
    check_dim(d**n)
    pts = phase_points(n, d)
    return freeze(np.array([weyl(x, n, d) for x in pts]))


@lru_cache(maxsize=32)
def _fourier_kernel(n: int, d: int) -> np.ndarray:
    """Matrix F[x, y] = omega^{-[x, y]} over all phase-point pairs."""
    return freeze(omega(d) ** (-symplectic_products(n, d)))


def characteristic_function(B: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_B(x) = d^{-n/2} tr[W_x^dag B], as a complex flat array."""
    ws = weyl_all(n, d)
    return np.einsum("xji,ij->x", ws.conj(), B) * d ** (-n / 2)


def char_distribution(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """p_psi(x) = |c_psi(x)|^2 for a pure state vector psi."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    ws = weyl_all(n, d)
    expect = np.einsum("i,xij,j->x", psi.conj(), ws, psi)
    return np.abs(expect) ** 2 / d**n


def point_operator(x, n: int, d: int) -> np.ndarray:
    """A_x = d^{-n} sum_y omega^{-[x,y]} W_y^dag."""
    return point_operators(n, d)[point_index(x, n, d)]


@lru_cache(maxsize=16)
def point_operators(n: int, d: int) -> np.ndarray:
    ws = weyl_all(n, d)
    kern = _fourier_kernel(n, d)
    return freeze(np.einsum("xy,yji->xij", kern, ws.conj()) / d**n)


def wigner_state(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    aops = point_operators(n, d)
    return np.einsum("i,xij,j->x", psi.conj(), aops, psi).real / d**n


def kron_power_rows(vs: np.ndarray, k: int) -> np.ndarray:
    """Row i is vs[i]^{(x) k}, with a hard cap on the row dimension."""
    vs = np.atleast_2d(vs)
    m, dim = vs.shape
    check_dim(dim**k)
    out = np.ones((m, 1), dtype=complex)
    for _ in range(k):
        out = (out[:, :, None] * vs[:, None, :]).reshape(m, -1)
    return out


def kron_power_vec(v: np.ndarray, k: int) -> np.ndarray:
    """v^{(x) k}, with a hard cap on the dimension."""
    return kron_power_rows(v, k)[0]


def apply_tensor_power(U: np.ndarray, v: np.ndarray, t: int) -> np.ndarray:
    """Compute U^{x t} v without materializing U^{x t}.

    v lives on (C^m)^{x t} with m = U.shape[0]; U is applied along each of
    the t tensor factors in turn.
    """
    m = U.shape[0]
    w = np.asarray(v, dtype=complex).reshape((m,) * t)
    for axis in range(t):
        w = np.moveaxis(np.tensordot(U, w, axes=([1], [axis])), 0, axis)
    return w.reshape(-1)
