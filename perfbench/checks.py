"""Independent checks for the benchmark's outputs.

Nothing here calls stabkit: counts come from closed formulas, subspaces
are compared as sets of member vectors, ranks come from a small batched
GF(p) elimination, and r(T) is rebuilt from member vectors.  A check
returns a list of problem strings; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

# Per-call false-alarm probability of a Monte-Carlo check.  No run makes
# 1000 Monte-Carlo calls, so a correct program fails a run by chance with
# probability below 1000 * 1e-7 = 1e-4.
MC_FALSE_ALARM = 1e-7


def sigma_count(t: int, d: int) -> int:
    """|Sigma_{t,t}(d)| = prod_{k=0}^{t-2} (d^k + 1)."""
    return math.prod(d**k + 1 for k in range(t - 1))


def lagrangian_count(n: int, d: int) -> int:
    """Number of Lagrangian subspaces of Z_d^{2n}: prod_{i=1}^{n} (d^i + 1)."""
    return math.prod(d**i + 1 for i in range(1, n + 1))


def stabilizer_count(n: int, d: int) -> int:
    return d**n * lagrangian_count(n, d)


def hoeffding_tolerance(shots: int, delta: float = MC_FALSE_ALARM) -> float:
    """eps with P(|p_hat - p| >= eps) <= delta for a mean of `shots` Bernoullis."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * shots))


def batch_rank(mats, p: int) -> np.ndarray:
    """Rank over GF(p) of each matrix in a (B, rows, cols) stack."""
    a = np.array(mats, dtype=np.int64) % p
    nb, rows, cols = a.shape
    rank = np.zeros(nb, dtype=np.int64)
    row_ids = np.arange(rows)
    inverse = np.array([0] + [pow(x, -1, p) for x in range(1, p)], dtype=np.int64)
    for col in range(cols):
        free = (a[:, :, col] != 0) & (row_ids[None, :] >= rank[:, None])
        has = free.any(axis=1)
        if not has.any():
            continue
        b = np.nonzero(has)[0]
        piv = np.argmax(free[b], axis=1)
        top = rank[b]
        moved = a[b, piv].copy()
        a[b, piv] = a[b, top]
        a[b, top] = (moved * inverse[moved[:, col]][:, None]) % p
        factors = a[b, :, col].copy()
        factors[np.arange(len(b)), top] = 0
        a[b] = (a[b] - factors[:, :, None] * a[b, top][:, None, :]) % p
        rank[b] += 1
    return rank


def member_codes(bases, d: int) -> np.ndarray:
    """Sorted integer codes of all member vectors of each span.

    `bases` is a (m, k, ambient) stack of spanning rows, k independent rows
    each; row i of the result lists the d^k members of span i in base d.
    """
    bases = np.asarray(bases, dtype=np.int64)
    m, k, ambient = bases.shape
    coeffs = np.array(list(itertools.product(range(d), repeat=k)), dtype=np.int64)
    coeffs = coeffs.reshape(-1, k)
    vecs = np.einsum("ck,mka->mca", coeffs, bases) % d
    weights = d ** np.arange(ambient - 1, -1, -1, dtype=np.int64)
    return np.sort(vecs @ weights, axis=1)


def same_span(a, b, d: int) -> bool:
    a, b = np.atleast_2d(a), np.atleast_2d(b)
    if a.shape != b.shape:
        return False
    return bool(np.array_equal(member_codes(a[None], d), member_codes(b[None], d)))


def subspace_set_digest(bases, d: int) -> str:
    """sha256 of a set of subspaces, independent of basis choice and order."""
    codes = member_codes(bases, d)
    codes = codes[np.lexsort(codes.T[::-1])]
    return hashlib.sha256(codes.astype("<i8").tobytes()).hexdigest()


def is_partition(parts, universe) -> bool:
    """The parts are disjoint and their union is exactly `universe`."""
    seen = set()
    total = 0
    for part in parts:
        part = list(part)
        total += len(part)
        seen.update(part)
    universe = set(universe)
    return total == len(universe) and seen == universe


def orthogonal_stochastic(mats, t: int, d: int) -> np.ndarray:
    """Per matrix: O^T O = 1, column sums 1 mod d, column norms 1 mod D."""
    O = np.asarray(mats, dtype=np.int64).reshape(-1, t, t) % d
    D = d if d % 2 else 2 * d
    gram = np.einsum("bki,bkj->bij", O, O) % d
    ok = (gram == np.eye(t, dtype=np.int64)).all(axis=(1, 2))
    ok &= (O.sum(axis=1) % d == 1 % d).all(axis=1)
    ok &= ((O**2).sum(axis=1) % D == 1 % D).all(axis=1)
    return ok


def r_dense(basis, d: int) -> np.ndarray:
    """r(T) = sum_{(x, y) in T} |x><y| on (C^d)^{x t}, from member vectors."""
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    t = basis.shape[1] // 2
    coeffs = np.array(list(itertools.product(range(d), repeat=len(basis))), dtype=np.int64)
    vecs = (coeffs.reshape(-1, len(basis)) @ basis) % d
    weights = d ** np.arange(t - 1, -1, -1, dtype=np.int64)
    r = np.zeros((d**t, d**t))
    np.add.at(r, (vecs[:, :t] @ weights, vecs[:, t:] @ weights), 1.0)
    return r


def tensor_power_expectation(basis, psi, n: int, d: int) -> complex:
    """<psi^{x t}| r(T)^{x n} |psi^{x t}> by summing over n-tuples of members.

    The copy-i digit string of an n-tuple (e_1, ..., e_n) of members of T
    is (x_i(e_1), ..., x_i(e_n)), read in base d with qudit 1 first.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=np.int64))
    t = basis.shape[1] // 2
    coeffs = np.array(list(itertools.product(range(d), repeat=len(basis))), dtype=np.int64)
    members = (coeffs.reshape(-1, len(basis)) @ basis) % d
    combos = np.indices((len(members),) * n).reshape(n, -1).T
    chosen = members[combos]
    weights = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    x_idx = np.einsum("cji,j->ci", chosen[:, :, :t], weights)
    y_idx = np.einsum("cji,j->ci", chosen[:, :, t:], weights)
    psi = np.asarray(psi, dtype=complex)
    terms = np.prod(psi[x_idx].conj() * psi[y_idx], axis=1)
    return complex(terms.sum())
