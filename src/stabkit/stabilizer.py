"""Stabilizer groups, stabilizer state vectors, and Lagrangian enumeration.

A stabilizer group on n qudits is an isotropic subspace M of Z_d^{2n}
(with respect to the symplectic form) together with a character, encoded
here as a phase-point translate z: the state |M, z> is the unique joint
eigenvector stabilized by {omega^{[z, x]} W_x : x in M} when M is
Lagrangian (dim n).  Every state vector is built from `weyl_action`
gathers, one formula for every d; no dense Weyl matrix is formed.
Stabilizer fidelities come from the characteristic function instead of
the state list (`_max_fidelity`), so the overlap and the protocols that
read it run where the list is refused.
"""

from __future__ import annotations

import numpy as np

from .gf import (
    Subspace,
    _subspaces_from_rref,
    coset_reps,
    echelon_stack,
    flat_index,
    gram_symplectic,
)
from .phase_space import (
    _ROW_BLOCK_BYTES,
    _digit_dft,
    _digit_sum,
    _digit_table,
    _pure_char,
    _tau_powers,
    capped_cache,
    check_dim,
    freeze,
    square_side,
    weyl_action,
)

__all__ = [
    "lagrangians",
    "isotropic_subspaces",
    "num_stabilizer_states",
    "all_stabilizer_states",
    "max_stabilizer_overlap",
]


def _isotropic_count(n: int, d: int, k: int) -> int:
    """Number of k-dim isotropic subspaces of Z_d^{2n}:
    prod_{i<k} (d^{2(n-i)} - 1) / (d^{i+1} - 1), prod_{i<=n} (d^i + 1) for k = n."""
    num = den = 1
    for i in range(k):
        num *= d ** (2 * (n - i)) - 1
        den *= d ** (i + 1) - 1
    return num // den


def _isotropic_side(n: int, d: int, k: int) -> int:
    """Side of a square with as many entries as the (count, k, 2n) bases."""
    return square_side(_isotropic_count(n, d, k) * k * 2 * n)


def _isotropic_stack(n: int, d: int, k: int) -> np.ndarray:
    """The canonical bases of all isotropic k-dim subspaces of Z_d^{2n}, a
    read-only (count, k, 2n) stack in key order.

    The symplectic form is alternating, so a span is isotropic iff its basis
    rows are pairwise orthogonal; every vector is admissible.  The cap
    guards the stack, from the closed-form count, before the scan:
    `lagrangians(6, 2)` (4922775 bases, a side of 18827) is refused at once.
    """
    check_dim(_isotropic_side(n, d, k))
    out = echelon_stack(gram_symplectic(2 * n, d), d, k, lambda vecs: np.ones(len(vecs), dtype=bool))
    assert len(out) == _isotropic_count(n, d, k)
    return out


@capped_cache(_isotropic_side, maxsize=None)
def isotropic_subspaces(n: int, d: int, dim: int) -> tuple[Subspace, ...]:
    """All symplectically isotropic subspaces of Z_d^{2n} of a given dimension,
    in the order of `_isotropic_stack`."""
    return _subspaces_from_rref(_isotropic_stack(n, d, dim), d)


def lagrangians(n: int, d: int) -> tuple[Subspace, ...]:
    return isotropic_subspaces(n, d, n)


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


def _fidelity_side(n: int, d: int) -> int:
    """Side of a square with an entry per stabilizer state, as many as each
    of the tables of `_fidelity_tables` holds."""
    return square_side(num_stabilizer_states(n, d))


@capped_cache(_fidelity_side, maxsize=4)
def _fidelity_tables(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, phases, slots), each (m, d^n), a row per Lagrangian in key order.

    For the basis rows b_1 ... b_n of M and a in Z_d^n, points[M, a] is the
    flat point index of aB = sum_i a_i b_i and phases[M, a] the k with
    W_{b_1}^{a_1} ... W_{b_n}^{a_n} = e^{i pi k / d} W_{aB}.  With
    W_b = tau^{-p.q} Z^p X^q, (Z^p X^q)^a = omega^{-p.q a(a-1)/2} Z^{ap} X^{aq}
    and moving every Z left past the X before it gives
    k = (d^2 + 1)(P.Q - sum_i a_i p_i.q_i)
        - 2 (sum_i a_i (a_i - 1)/2 p_i.q_i + sum_{i<j} a_i a_j q_i.p_j)  mod 2d,
    (P, Q) = aB reduced mod d.  The translate W_z|M, 0> has eigenvalue
    omega^{c_i} under W_{b_i}, c_i = [b_i, z]; the least coset
    representatives z are the vectors on the n free (non-pivot) columns of
    M's basis, in the order of those digits u, so c = G u with
    G[i, k] = [b_i, e_{f_k}], and slots[M, c] = flat index of u, the
    position of that state inside M's block of `all_stabilizer_states`.
    The tables are built in blocks of Lagrangians, in the narrowest
    integer types, and read-only.
    """
    bases = _isotropic_stack(n, d, n)
    dim = d**n
    A = _digit_table(n, d)
    digit = np.arange(d)
    points = np.empty((len(bases), dim), dtype=np.min_scalar_type(dim * dim - 1))
    phases = np.empty((len(bases), dim), dtype=np.min_scalar_type(2 * d - 1))
    slots = np.empty((len(bases), dim), dtype=np.min_scalar_type(dim - 1))
    step = _fidelity_block(n, d)
    for lo in range(0, len(bases), step):
        B = bases[lo : lo + step].astype(np.int64)
        m = len(B)
        P, Q = B[:, :, :n], B[:, :, n:]
        aB = _span(B, d).transpose(0, 2, 1)
        points[lo : lo + m] = flat_index(aB, d)
        pq = (P * Q).sum(axis=2)
        qp = Q @ P.transpose(0, 2, 1)  # qp[M, i, j] = q_i . p_j
        k = (d * d + 1) * (aB[:, :, :n] * aB[:, :, n:]).sum(axis=2)
        k -= _digit_sum(pq.T[:, :, None] * ((d * d + 1) * digit + digit * (digit - 1)))
        for i, j in zip(*np.triu_indices(n, 1)):
            k -= 2 * qp[:, i, j, None] * (A[:, i] * A[:, j])
        phases[lo : lo + m] = k % (2 * d)
        # [b, e_f] is -q_b[f] on the p half and p_b[f - n] on the q half
        pivots = np.zeros((m, 2 * n), dtype=bool)
        pivots[np.arange(m)[:, None], np.argmax(B != 0, axis=2)] = True
        free = np.nonzero(~pivots)[1].reshape(m, n)
        G = np.take_along_axis(np.concatenate([-Q, P], axis=2), free[:, None, :], axis=2)
        chars = _span(G.transpose(0, 2, 1), d).transpose(0, 2, 1)
        slots[np.arange(lo, lo + m)[:, None], flat_index(chars, d)] = np.arange(dim)
    return freeze(points), freeze(phases), freeze(slots)


def _span(B: np.ndarray, d: int) -> np.ndarray:
    """out[M, col, a] = sum_i a_i B[M, i, col] mod d, flat over a in Z_d^n,
    for an (m, n, cols) stack B; summed digit by digit (`_digit_sum`)."""
    m, n, cols = B.shape
    tables = B.transpose(1, 0, 2).reshape(n, m * cols, 1) * np.arange(d)
    return (_digit_sum(tables) % d).reshape(m, cols, -1)


def _fidelity_block(n: int, d: int) -> int:
    """Lagrangians per block: a block's (m, d^n) complex rows take at most
    _ROW_BLOCK_BYTES."""
    return max(1, _ROW_BLOCK_BYTES // (16 * d**n))


def _max_fidelity(c: np.ndarray, n: int, d: int) -> tuple[int, float]:
    """(index into `all_stabilizer_states`, value) of max_S |<S|psi>|^2, from c_psi.

    The projector onto the joint eigenvector of the W_{b_i} with
    eigenvalues omega^{c_i} is d^{-n} sum_a omega^{-a.c} W_{b_1}^{a_1} ...
    W_{b_n}^{a_n}, and <psi|W_x|psi> = d^{n/2} conj(c_psi(x)), so the d^n
    fidelities of M are d^{-n/2} times the DFT over a of
    e^{i pi k_a / d} conj(c_psi(aB)) (`_fidelity_tables`).  Lagrangians
    are gathered and transformed a block at a time; the index is read from
    the winning (M, c) alone.
    """
    points, phases, slots = _fidelity_tables(n, d)
    dim = d**n
    conj = np.conj(c) * d ** (-n / 2)
    taus = _tau_powers(d)
    best, M, char = -np.inf, 0, 0
    step = _fidelity_block(n, d)
    for lo in range(0, len(points), step):
        block = conj[points[lo : lo + step]]
        block *= taus[phases[lo : lo + step]]
        fid = _digit_dft(block, n, d).real
        k = int(np.argmax(fid))
        if fid.flat[k] > best:
            best, (M, char) = float(fid.flat[k]), divmod(k, dim)
            M += lo
    return M * dim + int(slots[M, char]), best


def max_stabilizer_overlap(psi: np.ndarray, n: int, d: int) -> tuple[int, float]:
    """(index, value) of max_S |<S|psi>|^2 over the stabilizer states.

    The index is into `all_stabilizer_states(n, d)`, which is not built:
    the fidelities come from c_psi (`_max_fidelity`).
    """
    return _max_fidelity(_pure_char(np.asarray(psi, dtype=complex), n, d), n, d)
