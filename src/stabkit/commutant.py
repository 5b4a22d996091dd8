"""Stochastic Lagrangian subspaces and the operators R(T) they define.

A stochastic Lagrangian subspace T of Z_d^{2t} is a dimension-t subspace,
totally isotropic for the quadratic form Q(x, y) = x.x - y.y mod D, that
contains the all-ones vector (1, ..., 1).  The operators

    r(T) = sum_{(x, y) in T} |x><y|      on (C^d)^{x t}
    R(T) = r(T)^{x n}  (reordered copy-major)  on (C^{d^n})^{x t}

span the commutant of the t-th tensor power of the Clifford group.  The
set Sigma_{t,t}(d) of such T is enumerated constructively: a T is a triple
(N, M, J) of two defect subspaces and an isometry between their quotients,
the isometries of all pairs of one defect dimension extended at once.

Every R(T) quantity comes from one integer table, `R_support`: the flat
(row, column) indices of the nonzeros of each R(T), and numpy alone.
Operators and weighted sums are one `np.bincount` of it into a dense
array, expectations gather amplitudes through it, the Gram matrix is one
product of the incidence matrix it defines on the points that lie in two
or more T, and the commutation check applies R(T) to its probes by one
weighted `np.bincount` as well, for a block of T at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import (
    Subspace,
    _place_values,
    _reduce,
    _subspaces_from_rref,
    _trailing_span,
    all_vectors,
    coset_reps,
    dot,
    echelon_subspaces,
    extend_tuples,
    flat_index,
    form_modulus,
    generating_set,
    gram_dot,
    image_indices,
    is_q_isotropic,
    orbits,
    quadratic_q,
    quotient_basis,
    rref_stack,
    solve,
)
from .phase_space import capped_cache, check_dim, freeze, kron_power_vec, square_side

__all__ = [
    "defect_subspaces",
    "sigma_stack",
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
    "R_support",
    "R_sum",
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
    "commutator_residuals",
    "commutes_with_clifford",
]


# ---------------------------------------------------------------------------
# enumeration of defect subspaces and Sigma_{t,t}(d)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def defect_subspaces(t: int, d: int, k: int) -> tuple[Subspace, ...]:
    """Dimension-k subspaces N of Z_d^t with N q-isotropic and N <= 1^perp.

    By polarization, N is q-isotropic iff q vanishes on each basis row and
    the rows are pairwise orthogonal mod d.
    """
    D = form_modulus(d)

    def admissible(vecs):
        return (vecs.sum(axis=1) % d == 0) & ((vecs * vecs).sum(axis=1) % D == 0)

    return echelon_subspaces(gram_dot(t, d), d, k, admissible)


def _quotient_images(t: int, d: int, N: Subspace):
    """Candidate images in N^perp/N for the quotient isometries into it.

    Returns (table, table_q, table_dots, hits_ones): the nonzero coset
    representatives of N^perp/N with the all-ones vector appended as the
    last row, their q-values mod D and pairwise dots mod d, and whether the
    all-ones vector represents a nonzero class of N^perp/N.
    """
    D = form_modulus(d)
    ones = np.ones(t, dtype=np.int64)
    Nperp = N.complement(gram_dot(t, d))
    reps = coset_reps(Nperp, N)
    table = np.vstack([reps[reps.any(axis=1)], ones])
    hits_ones = Nperp.contains(ones) and not N.contains(ones)
    return table, (table * table).sum(axis=1) % D, (table @ table.T) % d, hits_ones


def _quotient_sources(t: int, d: int, M: Subspace):
    """A fixed complement basis of M inside M^perp for the isometries out of it.

    Returns (src, src_q, src_dots, forced).  When the all-ones vector is
    not in M, its class is nonzero and comes first (forced), so that its
    image can be pinned to [1] up front.
    """
    D = form_modulus(d)
    ones = np.ones(t, dtype=np.int64)
    Mperp = M.complement(gram_dot(t, d))
    forced = not M.contains(ones)
    if forced:
        M_ones = Subspace(np.vstack([M.basis, ones]), d, t)
        src = np.vstack([ones, quotient_basis(Mperp, M_ones)])
    else:
        src = quotient_basis(Mperp, M)
    return src, (src * src).sum(axis=1) % D, (src @ src.T) % d, forced


def _quotient_isometries(images, sources, d: int):
    """All isometries J : M^perp/M -> N^perp/N with J[1] = [1], for every
    pair (N, M) of an N from one list of defects and an M from another.

    `images` and `sources` are lists of `_quotient_images(N)` and
    `_quotient_sources(M)` over defects of one dimension that agree on
    whether they hold the all-ones vector, so that every table has the
    same length and every source basis the same size m.  Returns
    (which_N, which_M, chosen): isometry i maps the complement basis
    (c_1, ..., c_m) of M_{which_M[i]} inside its M^perp to the table
    rows chosen[i] of N_{which_N[i]}, pair after pair (N outer).

    The quadratic form q mod D and the dot product mod d both descend to
    the quotients, so it is enough to match them on representatives.  The
    dot product is nondegenerate on M^perp/M (the radical of M^perp is M),
    so images matching every dot are independent in N^perp/N: a rank
    check would only prune branches that cannot be completed.  The
    partial isometries of every pair are extended at once by
    `extend_tuples`, one source vector at a time, each frontier row
    carrying its pair: N's dot table gives the values, M's source dots
    the wanted dots, and the q-values of both the slot masks.
    """
    narrow = np.min_scalar_type(form_modulus(d) - 1)
    table_q = np.stack([image[1] for image in images]).astype(narrow)
    table_dots = np.stack([image[2] for image in images]).astype(narrow)
    src_q = np.stack([source[1] for source in sources]).astype(narrow)
    src_dots = np.stack([source[2] for source in sources]).astype(narrow)
    which_N, which_M = np.divmod(np.arange(len(images) * len(sources)), len(sources))
    last = table_q.shape[1] - 1
    if sources[0][3]:
        # J[1] = [1]: the image of the first source vector (the all-ones
        # vector itself) must represent the class of 1 in N^perp/N
        hits_ones = np.array([image[3] for image in images], dtype=bool)
        pairs = np.flatnonzero(hits_ones[which_N])
        chosen = np.full((len(pairs), 1), last)
    else:
        pairs = np.arange(len(which_N))
        chosen = np.zeros((len(pairs), 0))
    slot_ok = table_q[which_N][:, None, :] == src_q[which_M][:, :, None]
    slot_ok[:, :, last] = False
    chosen, pair = extend_tuples(chosen, table_dots[which_N], src_dots[which_M], slot_ok, pairs)
    return which_N[pair], which_M[pair], chosen


def _defect_rows(out, images, src, N_basis, M_basis) -> None:
    """Write the spanning rows of span({(x_i, c_i)} U {(n, 0) : n in N} U
    {(0, m) : m in M}) of a stack of T into `out`.

    out has shape (count, m + dim N + dim M, 2t) and any integer type
    that holds [0, d); images (the x_i) and src (the c_i) broadcast to
    (count, m, t), N_basis and M_basis to (count, dim N, t) and
    (count, dim M, t).
    """
    m, k, t = np.shape(images)[-2], np.shape(N_basis)[-2], out.shape[2] // 2
    out[:, :m, :t] = images
    out[:, :m, t:] = src
    out[:, m:m + k, :t] = N_basis
    out[:, m:m + k, t:] = 0
    out[:, m + k:, :t] = 0
    out[:, m + k:, t:] = M_basis


def _from_defects(N: Subspace, M: Subspace, images, src) -> Subspace:
    """span({(x_i, c_i)} U {(n, 0) : n in N} U {(0, m) : m in M}) in Z_d^{2t}."""
    t = N.ambient
    images, src = np.reshape(images, (-1, t)), np.reshape(src, (-1, t))
    rows = np.empty((1, len(images) + N.dim + M.dim, 2 * t), dtype=np.int64)
    _defect_rows(rows, images, src, N.basis, M.basis)
    return Subspace(rows[0], N.d, 2 * t)


def _sigma_side(t: int, d: int) -> int:
    """Side of a square with as many entries as the (m, t, 2t) stack of Sigma_{t,t}(d)."""
    return square_side(sigma_count_formula(t, d) * t * 2 * t)


@capped_cache(_sigma_side, maxsize=None)
def sigma_stack(t: int, d: int) -> np.ndarray:
    """All of Sigma_{t,t}(d) as one read-only (m, t, 2t) stack of canonical
    bases, in key order, in the integer type np.min_scalar_type(d - 1).

    Every T has t spanning rows (dim M^perp/M = t - 2 dim M), so the rows
    of all (N, M, J) are written into one array of the narrow type, which
    is canonicalised at once and ordered by the canonical key with one
    lexsort.  The isometries come from one `_quotient_isometries` call per
    defect dimension and ones-class.  The cap guards the stack's
    m t 2t entries, m = `sigma_count_formula(t, d)`, as a square of as
    many, before anything is built, and before a cached stack is
    returned.
    """
    ones = np.ones(t, dtype=np.int64)
    narrow = np.min_scalar_type(d - 1)
    rows = np.empty((sigma_count_formula(t, d), t, 2 * t), dtype=narrow)
    filled = 0
    for k in range(t // 2 + 1):
        defects = defect_subspaces(t, d, k)
        has_ones = np.array([N.contains(ones) for N in defects], dtype=bool)
        for members in (np.flatnonzero(has_ones), np.flatnonzero(~has_ones)):
            if not len(members):
                continue
            # quotient data depends on one defect only: computed once per defect
            group = [defects[i] for i in members]
            images = [_quotient_images(t, d, N) for N in group]
            sources = [_quotient_sources(t, d, M) for M in group]
            which_N, which_M, chosen = _quotient_isometries(images, sources, d)
            tables = np.stack([image[0] for image in images]).astype(narrow)
            src = np.stack([source[0] for source in sources]).astype(narrow)
            bases = np.stack([N.basis for N in group]).astype(narrow)
            _defect_rows(rows[filled:filled + len(chosen)], tables[which_N[:, None], chosen],
                         src[which_M], bases[which_N], bases[which_M])
            filled += len(chosen)
    assert filled == len(rows)
    reduced = rref_stack(rows, d)
    del rows
    assert reduced[:, -1].any(axis=1).all()  # every T has dimension t
    # with equal dimensions the key order is the order of the flattened bases
    flat = reduced.reshape(len(reduced), -1)
    return freeze(reduced[np.lexsort(flat.T[::-1])])


@capped_cache(_sigma_side, maxsize=None)
def stochastic_lagrangians(t: int, d: int) -> tuple[Subspace, ...]:
    """All of Sigma_{t,t}(d), as canonical subspaces of Z_d^{2t} in key
    order: one Subspace per basis of `sigma_stack(t, d)`, under the same
    cap, also when cached."""
    return _subspaces_from_rref(sigma_stack(t, d), d)


def sigma_count_formula(t: int, d: int) -> int:
    """|Sigma_{t,t}(d)| = prod_{k=0}^{t-2} (d^k + 1)."""
    n = 1
    for k in range(t - 1):
        n *= d**k + 1
    return n


@capped_cache(lambda t, d: square_side(d**t * t), maxsize=None)  # the (d^t, t) column table
def orthogonal_stochastic_group(t: int, d: int) -> tuple[np.ndarray, ...]:
    """O_t(d): t x t matrices over Z_d, orthogonal, stochastic, q-preserving.

    A valid column c has c.c = 1 mod d, q(c) = 1 mod D, and sum(c) = 1
    mod d; columns are pairwise orthogonal mod d, and `extend_tuples` lists
    the column tuples in lexicographic order.  Per-column sums equal to one
    are equivalent to stochasticity of both the matrix and its transpose
    once orthogonality holds.  The matrices are read-only views of one
    stack.
    """
    D = form_modulus(d)
    vecs = all_vectors(t, d)
    q = (vecs * vecs).sum(axis=1)
    # q(c) = 1 mod D implies c.c = 1 mod d, since d divides D
    cand = vecs[(q % D == 1 % D) & (vecs.sum(axis=1) % d == 1 % d)]
    orthogonal = (cand @ cand.T) % d == 0
    want, slot_ok = np.ones((t, t), dtype=bool), np.ones((t, len(cand)), dtype=bool)
    cols = extend_tuples(np.zeros((1, 0)), orthogonal, want, slot_ok)
    return tuple(np.moveaxis(freeze(cand.T[:, cols]), 0, 1))


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
    """{x : (x, 0) in T} for side 0, {y : (0, y) in T} for side 1.

    One elimination of T's basis with the other half's columns first: the
    reduced rows with no pivot there span the defect, in the half's columns.
    """
    t = T.ambient // 2
    rows, pivots = _reduce(np.roll(T.basis, (1 - side) * t, axis=1), T.d)
    return _trailing_span(rows, pivots, 2 * t, t, T.d)


def left_defect(T: Subspace) -> Subspace:
    """{x : (x, 0) in T}."""
    return _defect(T, 0)


def right_defect(T: Subspace) -> Subspace:
    """{y : (0, y) in T}."""
    return _defect(T, 1)


# ---------------------------------------------------------------------------
# the operators r(T) and R(T)
# ---------------------------------------------------------------------------

# T's per block of `R_support`: the odd-d digit table is (2t, block, |T|)
_SUPPORT_BLOCK = 256


def _sizes(Ts, d: int | None) -> tuple[int, int, int, int]:
    """(m, k, t, d) for m subspaces of dimension k in Z_d^{2t}: Ts is a
    sequence of Subspace objects (d None) or the (m, k, 2t) stack of
    their bases over Z_d."""
    if d is None:
        return len(Ts), Ts[0].dim, Ts[0].ambient // 2, Ts[0].d
    m, k, c = np.shape(Ts)
    return m, k, c // 2, d


def _element_slots(block: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """Slot indices of every element (x, y) of each T in a (B, k, 2t) block
    of bases with entries in [0, d): out[0, b, i] = flat_index(x, d^n) and
    out[1, b, i] = flat_index(y, d^n) for the element of T_b with
    coefficients `all_vectors(k, d)[i]`.

    The elements are built by doubling: basis rows k-1 ... 0 in turn
    become the most significant coefficient c, and the elements made so
    far are shifted by c times that row.  For d = 2 each half of a row is
    one int64 word with place values (2^n)^{t-1-c}, which already is its
    slot index; binary digits never carry, so the shift is an XOR.  For
    odd d the digits are shifted for c = 1 ... d-1 at once, by one
    addition and one compare-subtract in an unsigned type that holds
    2(d - 1) (for x = a + b < 2d, min(x, x - d) wraps below d), and read
    into slot indices once.
    """
    B, k, _ = block.shape
    halves = block.reshape(B, k, 2, t)
    place = _place_values(t, d**n)
    if d == 2:
        # words[(h, b), i]: half h of row i of T_b
        words = (halves @ place).transpose(2, 0, 1).reshape(2 * B, k)
        out = np.empty((2 * B, 2**k), dtype=np.int64)
        out[:, 0] = 0
        s = 1
        for i in range(k - 1, -1, -1):
            np.bitwise_xor(out[:, :s], words[:, i, None], out=out[:, s:2 * s])
            s *= 2
        return out.reshape(2, B, -1)
    work = np.min_scalar_type(2 * (d - 1))
    # multiples[(h, c, b), i, e] = (e + 1) times coordinate c of half h of
    # row i of T_b, mod d
    digit_rows = halves.transpose(2, 3, 0, 1).reshape(-1, k, 1)
    multiples = (digit_rows * np.arange(1, d) % d).astype(work)
    digits = np.empty((2 * t * B, d**k), dtype=work)
    digits[:, 0] = 0
    s = 1
    for i in range(k - 1, -1, -1):
        shifted = digits[:, s:d * s].reshape(-1, d - 1, s)
        np.add(digits[:, None, :s], multiples[:, i, :, None], out=shifted)
        np.minimum(shifted, shifted - work.type(d), out=shifted)
        s *= d
    digits = digits.reshape(2, t, B, -1)
    out = digits[:, 0].astype(np.int64)
    for c in range(1, t):
        out *= d**n
        out += digits[:, c]
    return out


def R_support(Ts, n: int, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the nonzeros of every R(T_i), copy-major.

    Ts is a sequence of m Subspace objects of one dimension k in Z_d^{2t},
    or, with d given, the (m, k, 2t) stack of their bases (such as
    `sigma_stack(t, d)`).  Returns (rows, cols), each of shape
    (m, d^{kn}) (d^{tn} on Sigma_{t,t}(d)); R(T_i) has a 1 at each
    (rows[i, k], cols[i, k]) and zeros elsewhere.  Nonzero k is the
    n-tuple of elements of T_i with flat index k in base |T_i| (qudit
    slot 0 most significant), each element indexed by its coefficients
    in `all_vectors(k, d)` order.  Copy c of the row index carries the
    digits (x^{(0)}_c ... x^{(n-1)}_c) of the chosen elements in base d,
    so slot j adds flat_index(x, d^n) d^{n-1-j}.

    The slot indices of the elements come from `_element_slots`, by
    doubling over the basis rows with no element tensor, and the n slots
    are summed as outer sums, the last one written into the table.  The
    cap guards the two tables, as a square of 2 m |T|^n entries, before
    they are allocated; no d^{tn} operator is built.
    """
    stacked = d is not None
    m, k, t, d = _sizes(Ts, d)
    size = d ** (k * n)
    check_dim(square_side(2 * m * size))
    # Subspace objects are stacked once, in the narrow type of `sigma_stack`
    bases = np.asarray(Ts) if stacked else np.array(
        [T.basis for T in Ts], dtype=np.min_scalar_type(d - 1))
    rows = np.empty((m, size), dtype=np.int64)
    cols = np.empty((m, size), dtype=np.int64)
    for lo in range(0, m, _SUPPORT_BLOCK):
        block = bases[lo:lo + _SUPPORT_BLOCK] % d
        B = len(block)
        for out, slot in zip((rows[lo:lo + B], cols[lo:lo + B]), _element_slots(block, t, n, d)):
            # the n slots as outer sums acc d + slot, the last written into the table
            acc = slot
            for j in range(1, n):
                shape = (B, acc.shape[1], slot.shape[1])
                parts = out.reshape(shape) if j == n - 1 else np.empty(shape, dtype=np.int64)
                np.add((acc * d)[:, :, None], slot[:, None, :], out=parts)
                acc = parts.reshape(B, -1)
            if n == 1:
                out[:] = slot
    return rows, cols


def R_sum(Ts, weights, n: int, d: int | None = None) -> np.ndarray:
    """sum_i w_i R(T_i) as a dense (d^{tn}, d^{tn}) array.

    Ts is as in `R_support`.  One weighted `np.bincount` of the flat
    indices rows * d^{tn} + cols of the support table, duplicates summed.
    The cap guards the output's dimension d^{tn}, and the table's m d^{tn}
    entries as a square of as many.
    """
    m, _, t, modulus = _sizes(Ts, d)
    dim = modulus ** (t * n)
    check_dim(dim)
    check_dim(square_side(m * dim))
    rows, cols = R_support(Ts, n, d)
    rows *= dim
    rows += cols  # in place: the flat indices into the dim x dim output
    del cols
    w = np.repeat(np.asarray(weights, dtype=float), rows.shape[1])
    return np.bincount(rows.ravel(), weights=w, minlength=dim * dim).reshape(dim, dim)


def R_matrix(T: Subspace, n: int) -> np.ndarray:
    """R(T) = r(T)^{x n} on (C^{d^n})^{x t}, copy-major factor ordering."""
    return R_sum([T], [1.0], n)


def r_matrix(T: Subspace) -> np.ndarray:
    """r(T) = sum_{(x,y) in T} |x><y| on (C^d)^{x t}."""
    return R_matrix(T, 1)


def R_trace(T: Subspace, n: int) -> int:
    """tr R(T) = d^{n dim(T cap Delta)}: diagonal pairs (x, x) in T."""
    t, d = T.ambient // 2, T.d
    return d ** (n * T.intersect(diagonal_subspace(t, d)).dim)


def R_gram(Ts, n: int, d: int | None = None) -> np.ndarray:
    """G[i, j] = tr[R(T_i)^dag R(T_j)] = |T_i cap T_j|^n.

    Ts holds elements of Sigma_{t,t}(d) as in `R_support`: a sequence of
    Subspace objects, or with d given the stack of their bases (such as
    `sigma_stack(t, d)`).

    |T_i cap T_j| counts the points of Z_d^{2t} in both T_i and T_j.  Off
    the diagonal only the P points that lie in two or more of the T_i
    count, so with A the m x P 0/1 incidence of the T_i on those points,
    |T_i cap T_j| = (A A^T)_ij; the diagonal is |T| = d^t.  Every partial
    sum of A A^T is an integer at most d^t, so the product is exact in
    float32 while d^t < 2^24 (float64 above).  The cap guards the m x m
    output, the d^{2t} point count (a square of side d^t) and the m x P
    incidence, each as a square of as many entries.
    """
    m, _, t, modulus = _sizes(Ts, d)
    size = modulus**t
    check_dim(m)
    check_dim(size)
    rows, cols = R_support(Ts, 1, d)
    points = rows * size + cols  # (m, |T|) flat indices in Z_d^{2t}
    del rows, cols
    shared = np.bincount(points.ravel(), minlength=size * size) >= 2
    P = int(shared.sum())
    check_dim(square_side(max(m * P, 1)))
    i, k = np.nonzero(shared[points])
    A = np.zeros((m, P), dtype=np.float32 if size < 2**24 else np.float64)
    A[i, (np.cumsum(shared) - 1)[points[i, k]]] = 1
    del points, i, k
    G = A @ A.T
    np.fill_diagonal(G, size)
    G = G.astype(float)
    G **= n
    return G


def expectation_R(T: Subspace, psi: np.ndarray, n: int) -> complex:
    """<psi^{x t}| R(T) |psi^{x t}> for a state psi on n qudits."""
    t = T.ambient // 2
    rows, cols = R_support([T], n)
    v = kron_power_vec(np.asarray(psi, dtype=complex), t)
    return complex(np.vdot(v[rows[0]], v[cols[0]]))


# ---------------------------------------------------------------------------
# semigroup structure
# ---------------------------------------------------------------------------

def _compose_rref(T1: Subspace, T2: Subspace) -> tuple[list, list[int]]:
    """`_reduce` of the rows (y, x, 0) for (x, y) in the basis of T1 and
    (-u, 0, z) for (u, z) in the basis of T2, with column blocks (y | x | z).

    A combination of these rows has y block zero iff the y parts of its T1
    and T2 elements agree, so the reduced rows with no pivot in the y
    block span T1 o T2 (in the x | z blocks).  A dependency among the rows
    is (0, y) in T1 with (y, 0) in T2, so the rank falls short of
    dim T1 + dim T2 by the dimension of the overlap of T1's right defect
    with T2's left defect.
    """
    t = T1.ambient // 2
    rows = np.zeros((T1.dim + T2.dim, 3 * t), dtype=np.int64)
    rows[:T1.dim, :t] = T1.basis[:, t:]
    rows[:T1.dim, t:2 * t] = T1.basis[:, :t]
    rows[T1.dim:, :t] = -T2.basis[:, :t]  # `_reduce` takes the rows mod d
    rows[T1.dim:, 2 * t:] = T2.basis[:, t:]
    return _reduce(rows, T1.d)


def compose(T1: Subspace, T2: Subspace) -> tuple[Subspace, int]:
    """(T1 o T2, k) with r(T1) r(T2) = d^k r(T1 o T2).

    T1 o T2 = {(x, z) : exists y with (x, y) in T1, (y, z) in T2} and
    k = dim of the overlap of T1's right defect with T2's left defect;
    both come from one elimination (`_compose_rref`), whose rows with no
    pivot in the y block are already the canonical basis of T1 o T2.
    """
    t = T1.ambient // 2
    rows, pivots = _compose_rref(T1, T2)
    return _trailing_span(rows, pivots, 3 * t, t, T1.d), T1.dim + T2.dim - len(pivots)


def compose_constant(T1: Subspace, T2: Subspace) -> int:
    """Exponent k in r(T1) r(T2) = d^k r(T1 o T2)."""
    return T1.dim + T2.dim - len(_compose_rref(T1, T2)[1])


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

    Computed by orbit closure under the left and right actions of a
    generating set of O_t(d), each applied to all bases at once; each
    entry records the members plus two invariants that are constant per
    coset.
    """
    bases = sigma_stack(t, d)
    narrow = bases.dtype
    L, R = bases[:, :, :t], bases[:, :, t:]
    images = []
    for O in generating_set(orthogonal_stochastic_group(t, d), d):
        left, right = (L @ O.T % d).astype(narrow), (R @ O % d).astype(narrow)
        images.append(image_indices(bases, np.concatenate([left, R], axis=2), d))
        images.append(image_indices(bases, np.concatenate([L, right], axis=2), d))
    ones = np.ones(2 * t, dtype=np.int64)
    cosets = []
    # O_1(d) is trivial: no generators, and every T is its own coset
    images = np.array(images, dtype=np.int64).reshape(-1, len(bases))
    sigma = stochastic_lagrangians(t, d)
    for orbit in orbits(images):
        members = tuple(sigma[i] for i in orbit)
        rep = members[0]
        cosets.append(
            {
                "representative": rep,
                "members": members,
                "size": len(members),
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
    bases = sigma_stack(t, d)
    G = R_gram(bases, n, d)
    vals = np.linalg.eigvalsh(G)
    rank = int((vals > 1e-8 * vals.max()).sum())
    if n >= t - 1 and rank != len(bases):
        raise AssertionError("R(T) should be independent for n >= t - 1")
    return rank


# bytes per block of T in `commutator_residuals`: per T, the three columns
# R v of the moved block and their images under one generator letter; a
# block's support table, bincount slots and weights and letter temporaries
# take a small multiple of it
_COMMUTATOR_BLOCK_BYTES = 2**20


@lru_cache(maxsize=16)
def _probes(dim: int) -> np.ndarray:
    """The three unit probes of `commutator_residuals` on C^dim, drawn
    with `default_rng(0)`, as a read-only (dim, 3) array."""
    rng = np.random.default_rng(0)
    probes = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    probes /= np.linalg.norm(probes, axis=0)
    return freeze(probes)


def commutator_residuals(Ts, n: int, d: int | None = None) -> np.ndarray:
    """max |R(T) U^{x t} v - U^{x t} R(T) v| for every T, over the Clifford
    generators U on n qudits and three seeded unit probes v.

    Ts is as in `R_support`: a sequence of Subspace objects, or with d
    given the (m, k, 2t) stack of their bases (such as `sigma_stack(t, d)`).
    Matrix-free, at every n: the probes are drawn once per dimension,
    with `default_rng(0)` (`_probes`).  The T are taken in blocks within
    _COMMUTATOR_BLOCK_BYTES; for a block, R(T_b) V is one weighted
    `np.bincount` of its support tables, as in `R_sum`: the (dim, B, 3)
    complex result seen as floats, float j of row x for T_b is slot
    (x B + b) 6 + j, and the weights are the floats of the rows of V the
    columns name.  The block [v | R_1 v | ... | R_B v] is moved once per
    generator letter: the same letter on qudit c n + i of every copy c is
    applied as one word by `clifford._apply_letters` (the t copies of a P
    or CADD letter form one monomial run, so one row scatter).  The cap
    guards d^{tn}, the probes' length.
    """
    from .clifford import _apply_letters, generator_letters

    m, _, t, modulus = _sizes(Ts, d)
    dim = modulus ** (t * n)
    check_dim(dim)
    probes = _probes(dim)
    words = [[(kind, *[c * n + i for i in qudits]) for c in range(t)]
             for kind, *qudits in generator_letters(n)]
    worst = np.zeros(m)
    step = max(1, _COMMUTATOR_BLOCK_BYTES // (2 * 3 * 16 * dim))
    for lo in range(0, m, step):
        rows, cols = R_support(Ts[lo:lo + step], n, d)
        B = len(rows)
        slots = ((rows * B + np.arange(B)[:, None])[:, :, None] * 6 + np.arange(6)).ravel()
        del rows

        def apply_R(V):  # the (dim, B, 3) stack of R(T_b) V for a (dim, 3) block V
            w = np.take(V.view(float), cols, axis=0).ravel()
            return np.bincount(slots, weights=w, minlength=dim * B * 6).view(complex).reshape(dim, B, 3)

        block = np.empty((dim, 1 + B, 3), dtype=complex)
        block[:, 0] = probes
        block[:, 1:] = apply_R(probes)
        for word in words:
            moved = _apply_letters(word, block.reshape(dim, -1), t * n, modulus).reshape(block.shape)
            residual = np.abs(apply_R(moved[:, 0]) - moved[:, 1:]).max(axis=(0, 2))
            np.maximum(worst[lo:lo + B], residual, out=worst[lo:lo + B])
    return worst


def commutes_with_clifford(T: Subspace, n: int, d: int) -> dict:
    """Residuals of [R(T), U^{x t}] over the Clifford generators U: the
    one-T case of `commutator_residuals`."""
    worst = float(commutator_residuals([T], n)[0])
    return {"t": T.ambient // 2, "n": n, "d": d, "max_norm": worst, "passed": worst < 1e-9}
