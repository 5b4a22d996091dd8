"""Stabilizer groups, stabilizer state vectors, and Lagrangian enumeration.

A stabilizer group on n qudits is an isotropic subspace M of Z_d^{2n}
(with respect to the symplectic form) together with a character, encoded
here as a phase-point translate z: the state |M, z> is the unique joint
eigenvector stabilized by {omega^{[z, x]} W_x : x in M} when M is
Lagrangian (dim n).  Every state vector is built from `weyl_action`
gathers, one formula for every d; no dense Weyl matrix is formed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import Subspace, coset_reps, echelon_subspaces, gram_symplectic
from .phase_space import capped_cache, freeze, square_side, weyl_action

__all__ = [
    "lagrangians",
    "isotropic_subspaces",
    "num_stabilizer_states",
    "all_stabilizer_states",
    "max_stabilizer_overlap",
]


@lru_cache(maxsize=None)
def isotropic_subspaces(n: int, d: int, dim: int) -> tuple[Subspace, ...]:
    """All symplectically isotropic subspaces of Z_d^{2n} of a given dimension.

    The symplectic form is alternating, so a span is isotropic iff its basis
    rows are pairwise orthogonal; every vector is admissible.
    """
    return echelon_subspaces(gram_symplectic(2 * n, d), d, dim,
                             lambda vecs: np.ones(len(vecs), dtype=bool))


def lagrangians(n: int, d: int) -> tuple[Subspace, ...]:
    out = isotropic_subspaces(n, d, n)
    assert len(out) == num_stabilizer_states(n, d) // d**n
    return out


def num_stabilizer_states(n: int, d: int) -> int:
    """d^n prod_{i=1}^{n} (d^i + 1)."""
    out = d**n
    for i in range(1, n + 1):
        out *= d**i + 1
    return out


def _state_list_side(n: int, d: int) -> int:
    """Side of a square operator with as many entries as the state list."""
    return square_side(num_stabilizer_states(n, d) * d**n)


@capped_cache(_state_list_side)
def all_stabilizer_states(n: int, d: int) -> np.ndarray:
    """All stabilizer state vectors on n qudits, shape (count, d^n).

    For each Lagrangian M, prod_{g in M.basis} (1/d) sum_{k<d} W_g^k is the
    rank-one projector onto |M, 0> (d^{-n} sum_{x in M} W_x for odd d,
    prod (I + W_g)/2 for qubits); it is applied to the identity by row
    gathers and |M, 0> is its column of largest diagonal entry.  The d^n
    states of M are the translates W_z|M, 0> over the coset
    representatives z of Z_d^{2n} / M, each with its first non-negligible
    amplitude made real and positive.
    """
    dim = d**n
    full = Subspace.full(2 * n, d)
    rows = np.arange(dim)
    Ms = lagrangians(n, d)
    out = np.empty((len(Ms) * dim, dim), dtype=complex)
    for M, block in zip(Ms, out.reshape(len(Ms), dim, dim)):
        P = np.eye(dim, dtype=complex)
        for targets, phases in zip(*weyl_action(M.basis, n, d)):
            inverse = np.argsort(targets)
            term, acc = P, P
            for _ in range(d - 1):
                term = (phases[:, None] * term)[inverse]
                acc = acc + term
            P = acc / d
        base = P[:, np.argmax(np.abs(np.diag(P)))]
        base = base / np.linalg.norm(base)
        targets, phases = weyl_action(coset_reps(full, M), n, d)
        block[rows[:, None], targets] = phases * base
        first = block[rows, np.argmax(np.abs(block) > 1e-8, axis=1)]
        block *= (np.abs(first) / first)[:, None]
    return freeze(out)


def max_stabilizer_overlap(psi: np.ndarray, n: int, d: int) -> tuple[int, float]:
    """(index, value) of max_S |<S|psi>|^2 over the enumerated ensemble."""
    states = all_stabilizer_states(n, d)
    overlaps = np.abs(states.conj() @ np.asarray(psi, dtype=complex)) ** 2
    idx = int(np.argmax(overlaps))
    return idx, float(overlaps[idx])
