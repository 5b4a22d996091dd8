"""Weyl operators, characteristic and Wigner functions.

Phase points x = (p, q) live in Z_d^{2n}.  Phase-space functions are
indexed by the flat index of the digit row (p, q) (see `gf.flat_index`),
i.e. index = int(p, base d) * d^n + int(q, base d).

Every Weyl expansion comes from `characteristic_function` (tr[W_x^dag B]
at all x: one DFT over the shifted diagonals of B) and `symplectic_fourier`
(one DFT over the 2n digits), each O(n d^{2n} log d) time and d^{2n}
memory.  `weyl_action` is the one home of the Weyl formula: W_x as a
permutation of basis states times phases, which callers gather through.
Nothing here builds a Weyl matrix or stacks operators.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .gf import all_vectors, flat_index, sum_index

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


def square_side(entries: int) -> int:
    """Side of the smallest square operator with at least `entries` entries,
    the dimension `check_dim` is given for a table that is not square."""
    return math.isqrt(entries - 1) + 1


def capped_cache(dim, maxsize: int = 16):
    """lru_cache that runs check_dim(dim(*args)) before every lookup.

    A cached result is returned only while the cap allows it.  The wrapper
    keeps `cache_info` and `cache_clear` of the underlying cache.
    """

    def wrap(fn):
        cached = functools.lru_cache(maxsize=maxsize)(fn)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            check_dim(dim(*args, **kwargs))
            return cached(*args, **kwargs)

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call

    return wrap


def omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


def phase_points(n: int, d: int) -> np.ndarray:
    """All d^{2n} points (p, q), in flat index order."""
    return all_vectors(2 * n, d)


def point_index(x, n: int, d: int) -> int:
    return int(flat_index(np.asarray(x, dtype=np.int64) % d, d))


def linear_index_map(O: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """perm with |x> -> |O x> per base-d layer, for x in (Z_d^n)^t.

    perm[i] is the flat index of O x for the x of flat index i; O acts on the
    t blocks of n digits.  d is the alphabet size and need not be prime when
    O is a permutation matrix.
    """
    X = all_vectors(t * n, d).reshape(-1, t, n)
    Y = np.einsum("kj,xjl->xkl", np.asarray(O) % d, X) % d
    return flat_index(Y.reshape(-1, t * n), d)


def weyl_action(xs, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, phases) with W_x|b> = phases[i, b] |targets[i, b]> for x = xs[i].

    W_x = tau^{-p.q} (X) Z^{p_i} X^{q_i} sends |b> to
    tau^{-p.q} omega^{p.(b+q)} |b+q>; with tau = e^{i pi (d^2+1)/d} and
    omega = tau^2 each phase is e^{i pi k / d}, k reduced mod 2d.  xs is one
    point (p, q) or a stack of them; both outputs have shape (len(xs), d^n).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.int64)) % d
    p, q = xs[:, :n], xs[:, n:]
    shifted = (all_vectors(n, d) + q[:, None, :]) % d
    pq = np.einsum("ij,ij->i", p, q)[:, None]
    k = (2 * np.einsum("ibj,ij->ib", shifted, p) - (d * d + 1) * pq) % (2 * d)
    return flat_index(shifted, d), np.exp(1j * np.pi * k / d)


def characteristic_function(B: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_B(x) = d^{-n/2} tr[W_x^dag B], as a complex flat array.

    With W_x|b> = tau^{-p.q} omega^{p.(b+q)} |b+q> and tau^2 = omega,
    c_B(p, q) = d^{-n/2} tau^{-p.q} sum_b omega^{-p.b} B[b+q, b]: gather the
    q-shifted diagonals of B and take one DFT over the n digits of b.
    """
    check_dim(d**n)
    # diags[q, b] = B[b + q, b]
    diags = np.asarray(B, dtype=complex)[sum_index(n, d), np.arange(d**n)]
    spectrum = np.fft.fftn(diags.reshape((d**n,) + (d,) * n), axes=range(1, n + 1))
    # tau^{-p.q}, with the exponent reduced mod 2d (tau^{2d} = 1) for accuracy
    digits = all_vectors(n, d)
    phase = np.exp(-1j * np.pi * ((d * d + 1) * (digits @ digits.T) % (2 * d)) / d)
    return (spectrum.reshape(d**n, d**n).T * phase).reshape(-1) * d ** (-n / 2)


def symplectic_fourier(f: np.ndarray, n: int, d: int) -> np.ndarray:
    """(Ff)(x) = sum_y omega^{-[x, y]} f(y), along axis 0 of f.

    One DFT over the 2n digits of y gives g(k) = sum_y omega^{-k.y} f(y);
    since [x, y] = p.q' - q.p', (Ff)(p, q) = g(-q, p).
    """
    f = np.asarray(f)
    g = np.fft.fftn(f.reshape((d,) * (2 * n) + f.shape[1:]), axes=range(2 * n))
    g = g.reshape((d**n, d**n) + f.shape[1:])
    neg = flat_index(-all_vectors(n, d) % d, d)
    return g[neg].swapaxes(0, 1).reshape(f.shape)


def char_distribution(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """p_psi(x) = |c_psi(x)|^2 = |<psi|W_x|psi>|^2 / d^n for a pure state vector psi."""
    psi = np.asarray(psi, dtype=complex)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    return np.abs(characteristic_function(np.outer(psi, psi.conj()), n, d)) ** 2


def wigner_state(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """w_psi(x) = d^{-n} <psi|A_x|psi> = d^{-3n/2} Re (F c_psi)(x)."""
    psi = np.asarray(psi, dtype=complex)
    c = characteristic_function(np.outer(psi, psi.conj()), n, d)
    return symplectic_fourier(c, n, d).real * d ** (-1.5 * n)


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
