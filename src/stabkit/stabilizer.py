"""Stabilizer groups, stabilizer state vectors, and Lagrangian enumeration.

A stabilizer group on n qudits is an isotropic subspace M of Z_d^{2n}
(with respect to the symplectic form) together with a character, encoded
here as a phase-point translate z: the state |M, z> is the unique joint
eigenvector stabilized by {omega^{[z, x]} W_x : x in M} when M is
Lagrangian (dim n).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import Subspace, coset_reps, gram_symplectic, grow_subspaces, symplectic_form
from .phase_space import freeze, check_dim, weyl

__all__ = [
    "lagrangians",
    "isotropic_subspaces",
    "num_stabilizer_states",
    "stabilizer_projector",
    "stabilizer_state",
    "all_stabilizer_states",
    "measurement_channel",
    "max_stabilizer_overlap",
    "sample_stabilizer",
]


@lru_cache(maxsize=None)
def isotropic_subspaces(n: int, d: int, dim: int) -> tuple[Subspace, ...]:
    """All symplectically isotropic subspaces of Z_d^{2n} of a given dimension.

    The symplectic form is alternating, so every vector of the complement
    of an isotropic space extends it isotropically.
    """
    gram = gram_symplectic(2 * n, d)
    out = grow_subspaces(gram, d, dim, lambda cand: True)
    assert not any(((s.basis @ gram @ s.basis.T) % d).any() for s in out)
    return out


def lagrangians(n: int, d: int) -> tuple[Subspace, ...]:
    return isotropic_subspaces(n, d, n)


def num_stabilizer_states(n: int, d: int) -> int:
    """d^n prod_{i=1}^{n} (d^i + 1)."""
    out = d**n
    for i in range(1, n + 1):
        out *= d**i + 1
    return out


def stabilizer_projector(M: Subspace, n: int, d: int, z=None) -> np.ndarray:
    """Projector onto the joint eigenspace of {omega^{[z,x]} W_x : x in M}.

    P = d^{-dim M} sum_{x in M} omega^{-[z, x]} W_x.  For d = 2 the Weyl
    operators in an isotropic M commute and are Hermitian involutions, so
    the product form over rows of the basis is used instead (it avoids any
    reliance on character additivity over Z_2 lifts).
    """
    check_dim(d**n)
    if z is None:
        z = np.zeros(2 * n, dtype=np.int64)
    z = np.asarray(z, dtype=np.int64) % d
    dim = d**n
    if d == 2:
        P = np.eye(dim, dtype=complex)
        for g in M.basis:
            sign = (-1) ** symplectic_form(z, g, d)
            P = P @ (np.eye(dim) + sign * weyl(g, n, d)) / 2
        return P
    P = np.zeros((dim, dim), dtype=complex)
    w = np.exp(2j * np.pi / d)
    for x in M.vectors():
        P += w ** (-symplectic_form(z, x, d)) * weyl(x, n, d)
    return P / M.size


def stabilizer_state(M: Subspace, n: int, d: int, z=None) -> np.ndarray:
    """Normalized state vector for a Lagrangian M (rank-1 projector column)."""
    if M.dim != n:
        raise ValueError("stabilizer_state needs a Lagrangian (dim n) subspace")
    P = stabilizer_projector(M, n, d, z)
    col = np.argmax(np.abs(np.diag(P)))
    v = P[:, col]
    v = v / np.linalg.norm(v)
    # fix the global phase: first component of nonneligible modulus real positive
    k = np.argmax(np.abs(v) > 1e-8)
    v = v * (abs(v[k]) / v[k])
    return v


@lru_cache(maxsize=16)
def all_stabilizer_states(n: int, d: int) -> np.ndarray:
    """All stabilizer state vectors on n qudits, shape (count, d^n).

    Enumerates Lagrangians and, for each, translates the fiducial state by
    Weyl operators over coset representatives of Z_d^{2n} / M.
    """
    check_dim(d**n)
    full = Subspace.full(2 * n, d)
    states = []
    for M in lagrangians(n, d):
        base = stabilizer_state(M, n, d)
        for z in coset_reps(full, M):
            v = weyl(z, n, d) @ base
            k = np.argmax(np.abs(v) > 1e-8)
            states.append(v * (abs(v[k]) / v[k]))
    out = np.array(states)
    assert len(out) == num_stabilizer_states(n, d)
    return freeze(out)


def measurement_channel(M: Subspace, rho: np.ndarray, n: int, d: int) -> np.ndarray:
    """Dephasing to the stabilizer basis of M: d^{-n} sum_{x in M} W_x rho W_x^dag."""
    if rho.shape[0] != d**n:
        raise ValueError("dimension mismatch")
    out = np.zeros_like(rho, dtype=complex)
    for x in M.vectors():
        w = weyl(x, n, d)
        out += w @ rho @ w.conj().T
    return out / M.size


def max_stabilizer_overlap(psi: np.ndarray, n: int, d: int) -> tuple[int, float]:
    """(index, value) of max_S |<S|psi>|^2 over the enumerated ensemble."""
    states = all_stabilizer_states(n, d)
    overlaps = np.abs(states.conj() @ np.asarray(psi, dtype=complex)) ** 2
    idx = int(np.argmax(overlaps))
    return idx, float(overlaps[idx])


def sample_stabilizer(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the enumerated stabilizer states."""
    states = all_stabilizer_states(n, d)
    return states[rng.integers(len(states))]
