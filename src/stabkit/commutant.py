"""Stochastic Lagrangian subspaces and the operators R(T) they define.

A stochastic Lagrangian subspace T of Z_d^{2t} is a dimension-t subspace,
totally isotropic for the quadratic form Q(x, y) = x.x - y.y mod D, that
contains the all-ones vector (1, ..., 1).  The operators

    r(T) = sum_{(x, y) in T} |x><y|      on (C^d)^{x t}
    R(T) = r(T)^{x n}  (reordered copy-major)  on (C^{d^n})^{x t}

span the commutant of the t-th tensor power of the Clifford group.  The
set Sigma_{t,t}(d) of such T is enumerated constructively: a T is a triple
(N, M, J) of two defect subspaces and an isometry between their quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .gf import (
    Subspace,
    all_vectors,
    coset_reps,
    dot,
    flat_index,
    form_modulus,
    gram_dot,
    grow_subspaces,
    is_q_isotropic,
    nullspace,
    orbits,
    quadratic_q,
    quotient_basis,
    solve,
)
from .phase_space import check_dim, freeze, kron_power_vec

__all__ = [
    "defect_subspaces",
    "stochastic_lagrangians",
    "sigma_count_formula",
    "orthogonal_stochastic_group",
    "subspace_from_matrix",
    "permutation_matrix",
    "anti_identity_matrix",
    "css_subspace",
    "diagonal_subspace",
    "left_defect",
    "right_defect",
    "r_matrix",
    "R_matrix",
    "R_trace",
    "R_gram",
    "compose",
    "compose_constant",
    "expectation_R",
    "DefectData",
    "defect_decompose",
    "reconstruct",
    "css_projector",
    "left_right_act",
    "double_cosets",
    "anti_permutation",
    "is_member_O",
    "linear_independence_check",
    "commutes_with_clifford",
]


# ---------------------------------------------------------------------------
# enumeration of defect subspaces and Sigma_{t,t}(d)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def defect_subspaces(t: int, d: int, k: int) -> tuple[Subspace, ...]:
    """Dimension-k subspaces N of Z_d^t with N q-isotropic and N <= 1^perp."""
    return grow_subspaces(
        gram_dot(t, d), d, k, lambda cand: not cand[-1].sum() % d and is_q_isotropic(cand, d)
    )


def _quotient_isometries(t: int, d: int, N: Subspace, M: Subspace):
    """All isometries J : M^perp/M -> N^perp/N with J[1] = [1].

    Yields pairs (src, images): a fixed complement basis (c_1, ..., c_m)
    of M inside M^perp and representative image vectors (J c_1, ..., J c_m).
    The quadratic form q mod D and the dot product mod d both descend to
    the quotients, so it is enough to match them on representatives.
    """
    D = form_modulus(d)
    ones = np.ones(t, dtype=np.int64)
    gram = gram_dot(t, d)
    Mperp = M.complement(gram)
    Nperp = N.complement(gram)
    m = Mperp.dim - M.dim

    # source complement basis; put the class of the all-ones vector first
    # when it is nonzero so its image can be forced to be [1] up front
    forced = not M.contains(ones)
    if forced:
        M_ones = Subspace(np.vstack([M.basis, ones]), d, t)
        src = np.vstack([ones, quotient_basis(Mperp, M_ones)])
    else:
        src = quotient_basis(Mperp, M)

    # drop the zero class; images must be independent in the quotient
    reps = [r for r in coset_reps(Nperp, N) if r.any()]

    src_q = [quadratic_q(c, d) % D for c in src]
    src_dots = (src @ src.T) % d

    def independent(vecs) -> bool:
        stack = np.vstack([N.basis, *[v[None, :] for v in vecs]]) if N.dim else np.vstack(vecs)
        return Subspace(stack, d).dim == N.dim + len(vecs)

    def rec(i, images):
        if i == m:
            yield src, tuple(images)
            return
        for r in reps:
            if quadratic_q(r, d) % D != src_q[i]:
                continue
            if any(dot(r, images[j], d) != src_dots[i, j] for j in range(i)):
                continue
            if not independent(images + [r]):
                continue
            yield from rec(i + 1, images + [r])

    if forced:
        # J[1] = [1]: the image of the first source vector (the all-ones
        # vector itself) must represent the class of 1 in N^perp/N
        if not Nperp.contains(ones):
            return
        if N.contains(ones):
            return
        if quadratic_q(ones, d) % D != src_q[0]:
            return
        yield from rec(1, [ones % d])
    else:
        yield from rec(0, [])


def _from_defects(N: Subspace, M: Subspace, images, src) -> Subspace:
    """span({(x_i, c_i)} U {(n, 0) : n in N} U {(0, m) : m in M}) in Z_d^{2t}."""
    t = N.ambient
    rows = [
        np.hstack([np.reshape(images, (-1, t)), np.reshape(src, (-1, t))]),
        np.hstack([N.basis, np.zeros_like(N.basis)]),
        np.hstack([np.zeros_like(M.basis), M.basis]),
    ]
    return Subspace(np.vstack(rows), N.d, 2 * t)


@lru_cache(maxsize=None)
def stochastic_lagrangians(t: int, d: int) -> tuple[Subspace, ...]:
    """All of Sigma_{t,t}(d), as canonical subspaces of Z_d^{2t}."""
    ones = np.ones(t, dtype=np.int64)
    out = []
    for k in range(t // 2 + 1):
        defects = defect_subspaces(t, d, k)
        for N in defects:
            for M in defects:
                if N.contains(ones) != M.contains(ones):
                    continue
                for src, images in _quotient_isometries(t, d, N, M):
                    out.append(_from_defects(N, M, images, src))
    out = sorted(set(out), key=lambda s: s._key)
    assert len(out) == sigma_count_formula(t, d)
    assert all(T.dim == t for T in out)
    return tuple(out)


def sigma_count_formula(t: int, d: int) -> int:
    """|Sigma_{t,t}(d)| = prod_{k=0}^{t-2} (d^k + 1)."""
    n = 1
    for k in range(t - 1):
        n *= d**k + 1
    return n


@lru_cache(maxsize=None)
def orthogonal_stochastic_group(t: int, d: int) -> tuple[np.ndarray, ...]:
    """O_t(d): t x t matrices over Z_d, orthogonal, stochastic, q-preserving.

    Column-by-column DFS.  A valid column c has c.c = 1 mod d, q(c) = 1
    mod D, and sum(c) = 1 mod d; columns are pairwise orthogonal mod d.
    Per-column sums equal to one are equivalent to stochasticity of both
    the matrix and its transpose once orthogonality holds.
    """
    D = form_modulus(d)
    ones = np.ones(t, dtype=np.int64)
    cand = [
        v
        for v in all_vectors(t, d)
        if dot(v, v, d) == 1 % d
        and quadratic_q(v, d) % D == 1 % D
        and dot(v, ones, d) == 1 % d
    ]
    out = []

    def rec(cols):
        if len(cols) == t:
            out.append(freeze(np.array(cols, dtype=np.int64).T))
            return
        for c in cand:
            if any(dot(c, prev, d) for prev in cols):
                continue
            rec(cols + [c])

    rec([])
    return tuple(out)


# ---------------------------------------------------------------------------
# distinguished elements of Sigma_{t,t}(d)
# ---------------------------------------------------------------------------

def subspace_from_matrix(O: np.ndarray, d: int) -> Subspace:
    """T_O = {(O y, y) : y in Z_d^t} for a t x t matrix O."""
    O = np.asarray(O, dtype=np.int64) % d
    t = O.shape[0]
    basis = np.hstack([O.T, np.eye(t, dtype=np.int64)])
    return Subspace(basis, d)


def permutation_matrix(perm) -> np.ndarray:
    """Matrix P with P e_j = e_{perm[j]}."""
    t = len(perm)
    P = np.zeros((t, t), dtype=np.int64)
    for j, i in enumerate(perm):
        P[i, j] = 1
    return P


def anti_identity_matrix(t: int) -> np.ndarray:
    """All-ones minus identity; lies in O_t(2) when t = 2 mod 4."""
    if t % 4 != 2:
        raise ValueError("anti-identity needs t = 2 mod 4")
    return (np.ones((t, t), dtype=np.int64) - np.eye(t, dtype=np.int64)) % 2


def css_subspace(N: Subspace) -> Subspace:
    """T with both defects N and identity quotient map: {(x, y) : x - y in N, x in N^perp}."""
    cbasis = quotient_basis(N.complement(gram_dot(N.ambient, N.d)), N)
    T = _from_defects(N, N, cbasis, cbasis)
    assert T.dim == N.ambient
    return T


def diagonal_subspace(t: int, d: int) -> Subspace:
    eye = np.eye(t, dtype=np.int64)
    return Subspace(np.hstack([eye, eye]), d)


def _defect(T: Subspace, side: int) -> Subspace:
    """{x : (x, 0) in T} for side 0, {y : (0, y) in T} for side 1."""
    t = T.ambient // 2
    axis = np.zeros((t, 2 * t), dtype=np.int64)
    axis[:, side * t:(side + 1) * t] = np.eye(t, dtype=np.int64)
    inter = T.intersect(Subspace(axis, T.d))
    return Subspace(inter.basis[:, side * t:(side + 1) * t], T.d, t)


def left_defect(T: Subspace) -> Subspace:
    """{x : (x, 0) in T}."""
    return _defect(T, 0)


def right_defect(T: Subspace) -> Subspace:
    """{y : (0, y) in T}."""
    return _defect(T, 1)


# ---------------------------------------------------------------------------
# the operators r(T) and R(T)
# ---------------------------------------------------------------------------

def r_matrix(T: Subspace, dense: bool = False):
    """r(T) = sum_{(x,y) in T} |x><y| on (C^d)^{x t}, sparse by default."""
    t, d = T.ambient // 2, T.d
    elems = T.vectors()
    rows = flat_index(elems[:, :t], d)
    cols = flat_index(elems[:, t:], d)
    dim = d**t
    mat = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(dim, dim), dtype=float
    ).tocsr()
    return mat.toarray() if dense else mat


def R_matrix(T: Subspace, n: int, dense: bool = False):
    """R(T) = r(T)^{x n} on (C^{d^n})^{x t}, copy-major factor ordering.

    Nonzero entries are indexed by n-tuples of elements of T: the t digits
    of the row (column) index in base d^n are built by stacking the x (y)
    digit strings of the chosen elements across the n qudit slots.
    """
    t, d = T.ambient // 2, T.d
    check_dim(d ** (t * n))
    elems = T.vectors()
    # digits[k, i, j] = coordinate i of the element chosen for qudit j
    digits = elems[all_vectors(n, len(elems))].transpose(0, 2, 1)
    # copy-major: copy i contributes the base-d digits (x^{(0)}_i ... x^{(n-1)}_i)
    rows = flat_index(digits[:, :t].reshape(-1, t * n), d)
    cols = flat_index(digits[:, t:].reshape(-1, t * n), d)
    dim = d ** (t * n)
    mat = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(dim, dim), dtype=float
    ).tocsr()
    return mat.toarray() if dense else mat


def R_trace(T: Subspace, n: int) -> int:
    """tr R(T) = d^{n dim(T cap Delta)}: diagonal pairs (x, x) in T."""
    t, d = T.ambient // 2, T.d
    return d ** (n * T.intersect(diagonal_subspace(t, d)).dim)


def R_gram(Ts, n: int) -> np.ndarray:
    """G[i, j] = tr[R(T_i)^dag R(T_j)] = d^{n dim(T_i cap T_j)}."""
    d = Ts[0].d
    m = len(Ts)
    G = np.empty((m, m), dtype=float)
    for i in range(m):
        for j in range(i, m):
            G[i, j] = G[j, i] = float(d) ** (n * Ts[i].intersect(Ts[j]).dim)
    return G


def expectation_R(T: Subspace, psi: np.ndarray, n: int) -> complex:
    """<psi^{x t}| R(T) |psi^{x t}> for a state psi on n qudits."""
    t = T.ambient // 2
    v = kron_power_vec(np.asarray(psi, dtype=complex), t)
    return complex(v.conj() @ (R_matrix(T, n) @ v))


# ---------------------------------------------------------------------------
# semigroup structure
# ---------------------------------------------------------------------------

def compose(T1: Subspace, T2: Subspace) -> tuple[Subspace, int]:
    """(T1 o T2, k) with r(T1) r(T2) = d^k r(T1 o T2).

    T1 o T2 = {(x, z) : exists y with (x, y) in T1, (y, z) in T2} and
    k = dim of the overlap of T1's right defect with T2's left defect.
    """
    t, d = T1.ambient // 2, T1.d
    A1 = nullspace(T1.basis, d)  # (x, y) in T1  iff  A1 (x, y) = 0
    A2 = nullspace(T2.basis, d)
    # constraints on (x, y, z) in Z_d^{3t}
    C = np.zeros((len(A1) + len(A2), 3 * t), dtype=np.int64)
    C[: len(A1), : 2 * t] = A1
    C[len(A1):, t:] = A2
    sol = nullspace(C, d)
    proj = np.hstack([sol[:, :t], sol[:, 2 * t:]])
    return Subspace(proj, d), compose_constant(T1, T2)


def compose_constant(T1: Subspace, T2: Subspace) -> int:
    """Exponent k in r(T1) r(T2) = d^k r(T1 o T2)."""
    return right_defect(T1).intersect(left_defect(T2)).dim


# ---------------------------------------------------------------------------
# defect decomposition, CSS projectors, group actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DefectData:
    """A stochastic Lagrangian as (left defect, right defect, isometry).

    `pairs` holds rows (x_i, c_i): the c_i are coset representatives of
    M^perp / M and x_i is the image of [c_i] under the quotient isometry,
    so T = span({(x_i, c_i)} U {(n, 0) : n in N} U {(0, m) : m in M}).
    """

    left: Subspace
    right: Subspace
    pairs: tuple


def defect_decompose(T: Subspace) -> DefectData:
    t, d = T.ambient // 2, T.d
    N, M = left_defect(T), right_defect(T)
    pairs = []
    for c in quotient_basis(M.complement(gram_dot(t, d)), M):
        # find (x, c) in T: solve B^T a = (*, c) on the right half
        a = solve(T.basis[:, t:].T, c, d)
        if a is None:
            raise AssertionError("right projection of T is not M^perp")
        x = (a @ T.basis[:, :t]) % d
        pairs.append((tuple(int(v) for v in x), tuple(int(v) for v in c)))
    return DefectData(left=N, right=M, pairs=tuple(pairs))


def reconstruct(data: DefectData) -> Subspace:
    images = [x for x, _ in data.pairs]
    src = [c for _, c in data.pairs]
    return _from_defects(data.left, data.right, images, src)


def css_projector(N: Subspace, t: int, d: int) -> np.ndarray:
    """P = |N|^{-2} sum_{p, q in N} Z_p X_q on (C^d)^{x t}.

    N must be co-stochastic and totally q-isotropic; then P is the
    orthogonal projector onto a CSS code of dimension d^{t - 2 dim N},
    and equals d^{-dim N} r(T) for the CSS subspace T built from N.
    """
    if N.ambient != t or N.d != d:
        raise ValueError("N must live in Z_d^t")
    if not is_q_isotropic(N.basis, d):
        raise ValueError("N is not totally q-isotropic")
    ones = np.ones(t, dtype=np.int64)
    if any(dot(v, ones, d) for v in N.basis):
        raise ValueError("N is not co-stochastic")
    check_dim(d**t)
    dim = d**t
    pts = all_vectors(t, d)
    idx = np.arange(dim)
    w = np.exp(2j * np.pi / d)
    P = np.zeros((dim, dim), dtype=complex)
    for p_vec in N.vectors():
        phases = w ** (pts @ p_vec % d)
        for q_vec in N.vectors():
            P[flat_index((pts + q_vec) % d, d), idx] += phases
    return P / N.size**2


def left_right_act(O: np.ndarray, T: Subspace, Oprime: np.ndarray) -> Subspace:
    """O T O' = {(O x, O'^T y) : (x, y) in T}."""
    t, d = T.ambient // 2, T.d
    L, R = T.basis[:, :t], T.basis[:, t:]
    rows = np.hstack([(L @ O.T) % d, (R @ Oprime) % d])
    return Subspace(rows, d, 2 * t)


def double_cosets(t: int, d: int) -> tuple[dict, ...]:
    """Partition of Sigma_{t,t}(d) into O_t(d) x O_t(d) double cosets.

    Computed by orbit closure under the left and right actions; each entry
    records the members plus two invariants that are constant per coset.
    """
    group = orthogonal_stochastic_group(t, d)
    ident = np.eye(t, dtype=np.int64)
    ones = np.ones(2 * t, dtype=np.int64)

    def neighbours(T):
        for O in group:
            yield left_right_act(O, T, ident)
            yield left_right_act(ident, T, O)

    by_bytes = lambda s: s.basis.tobytes()
    cosets = []
    for orbit in orbits(sorted(stochastic_lagrangians(t, d), key=by_bytes), neighbours):
        members = tuple(sorted(orbit, key=by_bytes))
        rep = members[0]
        cosets.append(
            {
                "representative": rep,
                "members": members,
                "size": len(orbit),
                "defect_dim": left_defect(rep).dim,
                "contains_ones": rep.contains(ones),
            }
        )
    return tuple(sorted(cosets, key=lambda c: -c["size"]))


def anti_permutation(perm, t: int, d: int, balanced: bool = False) -> np.ndarray:
    """A stochastic isometry generalizing the binary permutation complement.

    For d = 2 (needs t = 2 mod 4) this is the entrywise complement of the
    permutation matrix pi.  For odd d not dividing t the default form is
    2 t^{-1} 1 1^T - pi mod d.  With balanced=True the variant
    pi -/+ (t/2)^{-1} p p^T is returned, where p is the alternating parity
    vector (-1, 1, ..., -1, 1) and pi must satisfy pi p = +/- p.
    """
    pi = (
        np.asarray(perm, dtype=np.int64) % d
        if isinstance(perm, np.ndarray) and np.asarray(perm).ndim == 2
        else permutation_matrix(perm)
    )
    if balanced:
        if t % 2:
            raise ValueError("balanced anti-permutation needs even t")
        sinv = pow(t // 2, -1, d)
        par = np.array([(-1) ** (k + 1) for k in range(t)], dtype=np.int64) % d
        image = (pi @ par) % d
        if np.array_equal(image, par):
            sign = -1
        elif np.array_equal(image, (-par) % d):
            sign = 1
        else:
            raise ValueError("permutation does not preserve the parity vector")
        out = (pi + sign * sinv * np.outer(par, par)) % d
    elif d == 2:
        if t % 4 != 2:
            raise ValueError("anti-permutations need t = 2 mod 4")
        out = (1 - pi) % 2
    elif t % d != 0:
        tinv = pow(t, -1, d)
        out = (2 * tinv * np.ones((t, t), dtype=np.int64) - pi) % d
    else:
        raise ValueError("t divisible by d needs the balanced variant")
    if not is_member_O(out, t, d):
        raise AssertionError("constructed matrix is not a stochastic isometry")
    return out


def is_member_O(matrix: np.ndarray, t: int, d: int) -> bool:
    """Membership test for O_t(d): orthogonal, stochastic, q-isometric columns."""
    O = np.asarray(matrix, dtype=np.int64) % d
    if O.shape != (t, t):
        return False
    if ((O.T @ O) % d != np.eye(t, dtype=np.int64)).any():
        return False
    D = form_modulus(d)
    for j in range(t):
        if quadratic_q(O[:, j], d) != 1 % D:
            return False
        if O[:, j].sum() % d != 1:
            return False
    return True


def linear_independence_check(t: int, d: int, n: int) -> int:
    """Numeric rank of the Gram matrix [d^{n dim(T cap T')}] over Sigma."""
    sigma = stochastic_lagrangians(t, d)
    G = R_gram(sigma, n)
    vals = np.linalg.eigvalsh(G)
    rank = int((vals > 1e-8 * vals.max()).sum())
    if n >= t - 1 and rank != len(sigma):
        raise AssertionError("R(T) should be independent for n >= t - 1")
    return rank


def commutes_with_clifford(T: Subspace, n: int, d: int) -> dict:
    """Residuals of [R(T), U^{x t}] over the Clifford generators.

    Dense commutator norms at n = 1; matrix-free residuals on random
    vectors for larger n.
    """
    from .clifford import clifford_generators
    from .phase_space import apply_tensor_power

    t = T.ambient // 2
    R = R_matrix(T, n)
    gens = clifford_generators(n, d)
    worst = 0.0
    if n == 1 and d**t <= 512:
        Rd = np.asarray(R.todense())
        for U in gens:
            Ut = U
            for _ in range(t - 1):
                Ut = np.kron(Ut, U)
            worst = max(worst, np.abs(Rd @ Ut - Ut @ Rd).max())
    else:
        rng = np.random.default_rng(0)
        dim = d ** (t * n)
        for U in gens:
            for _ in range(3):
                v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                v /= np.linalg.norm(v)
                lhs = R @ apply_tensor_power(U, v, t)
                rhs = apply_tensor_power(U, R @ v, t)
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    return {"t": t, "n": n, "d": d, "max_norm": worst, "passed": worst < 1e-9}
