"""Dense and sparse second routes, kept as oracles for the library's single routes.

Each function here builds explicit operators (Weyl matrices, embedded
Clifford gates, projectors, permutation and POVM operators on tensor
powers, R(T) as scipy sparse matrices, phase-space functions from the
outer product of a state and np.fft, the Weyl action by einsums and a
complex exp) where the library gathers, counts with numpy, reads tables
or uses a closed formula, enumerates Sigma_{t,t}(d) by another
construction, or computes design quantities over all of Sigma_{t,t}(d)
through the full Gram matrix where the library works in class space.
Where the library works on whole stacks at once, the earlier one-at-a-time
routes are kept: the quotient isometries of Sigma_{t,t}(d) extended pair by
pair, and the Clifford commutator moved and gathered one T at a time.
Where the library reads a subspace straight from one elimination, the
earlier routes that reduce twice are kept: the intersection through a
nullspace, the semigroup product reduced again from its rows and the
defects through an intersection with a coordinate axis.
Where the library reads stabilizer fidelities from c_psi, the overlaps
with the enumerated state list are kept, and where it caches the row
tables of c_psi, the route that builds them block by block on every call.
Tests compare the two.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np
import scipy.sparse as sp

from stabkit import commutant, phase_space, stabilizer
from stabkit.clifford import _ATOL, fourier_gate, phase_gate
from stabkit.commutant import R_support, permutation_matrix, subspace_from_matrix
from stabkit.gf import (
    Subspace,
    _place_values,
    all_vectors,
    coset_reps,
    echelon_subspaces,
    extend_tuples,
    flat_index,
    form_modulus,
    gram_symplectic,
    nullspace,
    rref,
    rref_stack,
    symplectic_form,
)
from stabkit.definetti import _nnls
from stabkit.moments import (
    _DESIGN_ATOL,
    InfeasibleDesign,
    haar_moment_coefficients,
    orbit_moment_vector,
    sigma_classes,
)
from stabkit.phase_space import (
    capped_cache,
    check_dim,
    freeze,
    kron_power_vec,
    linear_index_map,
    phase_points,
    symplectic_fourier,
)


# ---------------------------------------------------------------------------
# Weyl and point operators
# ---------------------------------------------------------------------------

def weyl(x, n: int, d: int) -> np.ndarray:
    """W_x = tau^{-p.q} (X) Z^{p_i} X^{q_i} on n qudits, built directly.

    W_x|b> = tau^{-p.q} omega^{p.(b+q)} |b+q>; with tau = e^{i pi (d^2+1)/d}
    and omega = tau^2 each entry is e^{i pi k / d}, k reduced mod 2d.
    """
    x = np.asarray(x, dtype=np.int64) % d
    p, q = x[:n], x[n:]
    shifted = (all_vectors(n, d) + q) % d
    k = (2 * (shifted @ p) - (d * d + 1) * int(p @ q)) % (2 * d)
    op = np.zeros((d**n, d**n), dtype=complex)
    op[flat_index(shifted, d), np.arange(d**n)] = np.exp(1j * np.pi * k / d)
    return op


def weyl_action(xs, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The library's `weyl_action` by its formula: two einsums and a complex exp.

    targets[i, b] is the flat index of b + q and phases[i, b] =
    e^{i pi k / d} with k = 2 p.(b+q) - (d^2+1) p.q mod 2d, for x = xs[i].
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=np.int64)) % d
    p, q = xs[:, :n], xs[:, n:]
    shifted = (all_vectors(n, d) + q[:, None, :]) % d
    pq = np.einsum("ij,ij->i", p, q)[:, None]
    k = (2 * np.einsum("ibj,ij->ib", shifted, p) - (d * d + 1) * pq) % (2 * d)
    return flat_index(shifted, d), np.exp(1j * np.pi * k / d)


def weyl_scatter(x, n: int, d: int) -> np.ndarray:
    """W_x as a dense matrix: the library's `weyl_action` scattered into d^n x d^n."""
    targets, phases = phase_space.weyl_action(x, n, d)
    op = np.zeros((d**n, d**n), dtype=complex)
    op[targets[0], np.arange(d**n)] = phases[0]
    return op


@capped_cache(lambda n, d: d ** (2 * n))
def point_operators(n: int, d: int) -> np.ndarray:
    """Stack of all d^{2n} point operators A_x = d^{-n} sum_y omega^{-[x,y]} W_y^dag,
    in flat index order."""
    adjoints = np.array([weyl(y, n, d).conj().T for y in phase_points(n, d)])
    return freeze(symplectic_fourier(adjoints, n, d) / d**n)


# ---------------------------------------------------------------------------
# phase-space functions through the outer product, sum_index and np.fft
# ---------------------------------------------------------------------------

def sum_index(k: int, base: int) -> np.ndarray:
    """table[i, j] = flat index of (digit row i + digit row j) mod base."""
    table = np.zeros((base**k, base**k), dtype=np.int64)
    for col, place in zip(all_vectors(k, base).T, _place_values(k, base)):
        table += (col[:, None] + col[None, :]) % base * place
    return table


def characteristic_function(B: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_B(p, q) = d^{-n/2} tau^{-p.q} sum_b omega^{-p.b} B[b+q, b], flat.

    The q-shifted diagonals of B come from one gather through the
    d^{2n} `sum_index` table; the DFT over b is `np.fft.fftn` over n axes.
    """
    diags = np.asarray(B, dtype=complex)[sum_index(n, d), np.arange(d**n)]
    spectrum = np.fft.fftn(diags.reshape((d**n,) + (d,) * n), axes=range(1, n + 1))
    digits = all_vectors(n, d)
    phase = np.exp(-1j * np.pi * ((d * d + 1) * (digits @ digits.T) % (2 * d)) / d)
    return (spectrum.reshape(d**n, d**n).T * phase).reshape(-1) * d ** (-n / 2)


def symplectic_fourier_fft(f: np.ndarray, n: int, d: int) -> np.ndarray:
    """(Ff)(p, q) = g(-q, p) for g the `np.fft.fftn` over the 2n digits of y."""
    f = np.asarray(f)
    g = np.fft.fftn(f.reshape((d,) * (2 * n) + f.shape[1:]), axes=range(2 * n))
    g = g.reshape((d**n, d**n) + f.shape[1:])
    neg = flat_index(-all_vectors(n, d) % d, d)
    return g[neg].swapaxes(0, 1).reshape(f.shape)


def pure_characteristic_function(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_psi from the d^n x d^n outer product |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return characteristic_function(np.outer(psi, psi.conj()), n, d)


def char_rows_streaming(diagonals, n: int, d: int):
    """`phase_space._char_rows` with the (shift, phase) tables of every row
    block built on every call, none cached."""
    dim = d**n
    step = max(1, phase_space._ROW_BLOCK_BYTES // (16 * dim))
    digit = np.arange(d)
    place = (d ** np.arange(n - 1, -1, -1, dtype=np.int64))[:, None, None]
    tau_powers = np.exp(-1j * np.pi * np.arange(2 * d) / d)
    qdigits = all_vectors(n, d)
    for q0 in range(0, dim, step):
        qs = qdigits[q0 : q0 + step].T[:, :, None]
        shift = phase_space._digit_sum((qs + digit) % d * place)
        rows = phase_space._digit_dft(diagonals(shift), n, d)
        rows *= np.take(tau_powers, phase_space._digit_sum((d * d + 1) * qs * digit), mode="wrap")
        yield q0, rows


def pure_char_streaming(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_psi from the diagonals psi[b + q] conj(psi[b]) of `char_rows_streaming`."""
    psi = np.asarray(psi, dtype=complex)
    scaled = psi.conj() * d ** (-n / 2)

    def diagonals(shift):
        diag = psi[shift]
        diag *= scaled
        return diag

    return phase_space._stack_rows(char_rows_streaming(diagonals, n, d), n, d)


def characteristic_function_streaming(B: np.ndarray, n: int, d: int) -> np.ndarray:
    """c_B from the q-shifted diagonals of B through `char_rows_streaming`."""
    B = np.asarray(B, dtype=complex) * d ** (-n / 2)
    cols = np.arange(d**n)
    return phase_space._stack_rows(char_rows_streaming(lambda shift: B[shift, cols], n, d), n, d)


def char_distribution(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    return np.abs(pure_characteristic_function(psi, n, d)) ** 2


def wigner_state(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    c = pure_characteristic_function(psi, n, d)
    return symplectic_fourier_fft(c, n, d).real * d ** (-1.5 * n)


def bell_convolution(p: np.ndarray, n: int) -> np.ndarray:
    """sum_x p(x) p(x + a) over Z_2^{2n} by `np.fft.fftn` and `np.fft.ifftn`,
    clipped at zero."""
    p = np.asarray(p).reshape((2,) * (2 * n))
    return np.maximum(np.fft.ifftn(np.fft.fftn(p) ** 2).real.reshape(-1), 0.0)


def accept_probability(psi: np.ndarray, s: int, d: int) -> float:
    """(1 + d^{(s-1)n} sum_x p^s) / 2 over the whole p_psi."""
    n = round(math.log(len(psi), d))
    return float(0.5 * (1.0 + d ** ((s - 1) * n) * (char_distribution(psi, n, d) ** s).sum()))


# ---------------------------------------------------------------------------
# the support table of R(T) through the element tensor
# ---------------------------------------------------------------------------

def R_support_product(Ts, n: int, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """`commutant.R_support` through the (block, |T|, 2t) element tensor.

    The elements of 256 T's at a time are one batched integer product of
    `all_vectors(k, d)` with their bases, mod d; each half is read into
    slot indices by `flat_index` in base d^n, and the n slots are summed
    as outer sums, slot j scaled by d^{n-1-j}.
    """
    if d is None:
        m, k, t, d = len(Ts), Ts[0].dim, Ts[0].ambient // 2, Ts[0].d
        bases = np.array([T.basis for T in Ts], dtype=np.int64)
    else:
        bases = np.asarray(Ts, dtype=np.int64)
        m, k, t = bases.shape[0], bases.shape[1], bases.shape[2] // 2
    coeffs = all_vectors(k, d)
    size = d ** (k * n)
    rows = np.empty((m, size), dtype=np.int64)
    cols = np.empty((m, size), dtype=np.int64)
    for lo in range(0, m, 256):
        elems = np.matmul(coeffs, bases[lo:lo + 256]) % d  # (block, |T|, 2t)
        for out, half in ((rows, elems[:, :, :t]), (cols, elems[:, :, t:])):
            slot = flat_index(half, d**n)  # (block, |T|)
            acc = slot * d ** (n - 1)
            for j in range(1, n):
                acc = (acc[:, :, None] + slot[:, None, :] * d ** (n - 1 - j)).reshape(len(slot), -1)
            out[lo:lo + len(slot)] = acc
    return rows, cols


# ---------------------------------------------------------------------------
# R(T) as scipy sparse matrices, from the library's support table
# ---------------------------------------------------------------------------

def R_sum(Ts, weights, n: int) -> sp.csr_matrix:
    """sum_i w_i R(T_i): one COO scatter of the support table, duplicates summed."""
    t, d = Ts[0].ambient // 2, Ts[0].d
    rows, cols = R_support(Ts, n)
    dim = d ** (t * n)
    w = np.repeat(np.asarray(weights, dtype=float), rows.shape[1])
    coo = sp.coo_matrix((w, (rows.ravel(), cols.ravel())), shape=(dim, dim))
    return coo.tocsr()


def R_gram(Ts, n: int) -> np.ndarray:
    """(A A^T)^{o n} with A the sparse 0/1 incidence of the T_i as subsets of Z_d^{2t}."""
    t, d = Ts[0].ambient // 2, Ts[0].d
    rows, cols = R_support(Ts, 1)
    m, size = rows.shape
    A = sp.csr_matrix(
        (np.ones(m * size, dtype=np.int64),
         (np.repeat(np.arange(m), size), (rows * d**t + cols).ravel())),
        shape=(m, d ** (2 * t)),
    )
    return (A @ A.T).toarray().astype(float) ** n


# ---------------------------------------------------------------------------
# Sigma_{t,t}(d) through the all-ones vector
# ---------------------------------------------------------------------------

def stochastic_lagrangians(t: int, d: int) -> tuple[Subspace, ...]:
    """Sigma_{t,t}(d) as span(T' + {1}), with no defect subspaces or isometries.

    T' = T cap {last coordinate 0} has dimension t - 1 and determines T,
    since the all-ones vector 1 of Z_d^{2t} lies in T outside it.  The T'
    are the (t - 1)-dim subspaces with an echelon basis of rows that have
    last coordinate 0, are orthogonal to 1 (sum x - sum y = 0 mod d) and
    Q-isotropic (x.x - y.y = 0 mod D), pairwise orthogonal for the form
    diag(1, ..., 1, -1, ..., -1); Q(1) = 0 and 1 is orthogonal to T', so
    every span(T' + {1}) is a stochastic Lagrangian.  Each basis with 1
    appended is reduced again, and the bases are sorted by key.
    """
    D = form_modulus(d)
    gram = np.diag([1] * t + [-1] * t) % d

    def admissible(vecs):
        x, y = vecs[:, :t], vecs[:, t:]
        return ((vecs[:, -1] == 0)
                & ((x.sum(axis=1) - y.sum(axis=1)) % d == 0)
                & (((x * x).sum(axis=1) - (y * y).sum(axis=1)) % D == 0))

    primes = echelon_subspaces(gram, d, t - 1, admissible)
    stack = np.ones((len(primes), t, 2 * t), dtype=np.int64)
    stack[:, :-1] = [T.basis for T in primes]
    reduced = rref_stack(stack, d)
    order = np.lexsort(reduced.reshape(len(reduced), -1).T[::-1])
    return tuple(Subspace(basis, d) for basis in reduced[order])


# ---------------------------------------------------------------------------
# Sigma_{t,t}(d) pair by pair
# ---------------------------------------------------------------------------

def sigma_stack_per_pair(t: int, d: int) -> np.ndarray:
    """`commutant.sigma_stack` with the quotient isometries of each (N, M)
    pair extended by their own `extend_tuples` call, one group, and the
    spanning rows built in int64 per pair."""
    ones = np.ones(t, dtype=np.int64)
    blocks = []
    for k in range(t // 2 + 1):
        defects = commutant.defect_subspaces(t, d, k)
        has_ones = [N.contains(ones) for N in defects]
        images = [commutant._quotient_images(t, d, N) for N in defects]
        sources = [commutant._quotient_sources(t, d, M) for M in defects]
        for N, N_ones, (table, table_q, table_dots, hits_ones) in zip(defects, has_ones, images):
            for M, M_ones, (src, src_q, src_dots, forced) in zip(defects, has_ones, sources):
                if N_ones != M_ones:
                    continue
                last = len(table) - 1
                if forced:
                    chosen = np.full((int(hits_ones), 1), last)
                else:
                    chosen = np.zeros((1, 0))
                slot_ok = (table_q == src_q[:, None]) & (np.arange(len(table)) < last)
                isometries = table[extend_tuples(chosen, table_dots, src_dots, slot_ok)]
                m = len(src)
                rows = np.zeros((len(isometries), m + N.dim + M.dim, 2 * t), dtype=np.int64)
                rows[:, :m, :t] = isometries
                rows[:, :m, t:] = src
                rows[:, m:m + N.dim, :t] = N.basis
                rows[:, m + N.dim:, t:] = M.basis
                blocks.append(rows.astype(np.min_scalar_type(d - 1)))
    reduced = rref_stack(np.concatenate(blocks), d)
    flat = reduced.reshape(len(reduced), -1)
    return reduced[np.lexsort(flat.T[::-1])]


# ---------------------------------------------------------------------------
# Subspace results reduced twice
# ---------------------------------------------------------------------------

def subspace_bits(S: Subspace) -> tuple:
    """Everything a Subspace stores, to compare two routes bit for bit."""
    return (S.d, S.ambient, S._key, S.pivots, S.basis.dtype, S.basis.shape,
            S.basis.flags.writeable, S.basis.tobytes())


def intersect_nullspace(A: Subspace, B: Subspace) -> Subspace:
    """A cap B from the coefficient vectors (u, v) with u A + v B = 0, a
    nullspace of the transposed stack [A; B]; u A is reduced again."""
    A._check_compatible(B)
    if A.dim == 0 or B.dim == 0:
        return Subspace.zero(A.ambient, A.d)
    coeff = nullspace(np.vstack([A.basis, B.basis]).T, A.d)
    return Subspace((coeff[:, :A.dim] @ A.basis) % A.d, A.d, A.ambient)


def compose_rereduce(T1: Subspace, T2: Subspace) -> tuple[Subspace, int]:
    """`commutant.compose` with the product rows cut from `rref` of the
    (y | x | z) rows and reduced again by `Subspace`."""
    t, d = T1.ambient // 2, T1.d
    rows = np.zeros((T1.dim + T2.dim, 3 * t), dtype=np.int64)
    rows[:T1.dim, :t] = T1.basis[:, t:]
    rows[:T1.dim, t:2 * t] = T1.basis[:, :t]
    rows[T1.dim:, :t] = -T2.basis[:, :t]
    rows[T1.dim:, 2 * t:] = T2.basis[:, t:]
    reduced, pivots = rref(rows, d)
    product = reduced[[p >= t for p in pivots], t:]
    return Subspace(product, d, 2 * t), T1.dim + T2.dim - len(pivots)


def defect_two_reductions(T: Subspace, side: int) -> Subspace:
    """`commutant._defect` through T cap the coordinate axis of the side,
    cut to the side's columns and reduced again by `Subspace`."""
    t = T.ambient // 2
    axis = np.zeros((t, 2 * t), dtype=np.int64)
    axis[:, side * t:(side + 1) * t] = np.eye(t, dtype=np.int64)
    inter = T.intersect(Subspace(axis, T.d))
    return Subspace(inter.basis[:, side * t:(side + 1) * t], T.d, t)


# ---------------------------------------------------------------------------
# Clifford gates embedded as dense matrices
# ---------------------------------------------------------------------------

def cadd_gate(d: int) -> np.ndarray:
    """CADD|a, b> = |a, a + b mod d> on two qudits (CNOT for d = 2)."""
    g = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            g[a * d + (a + b) % d, a * d + b] = 1.0
    return g


def embed_single(g: np.ndarray, pos: int, n: int, d: int) -> np.ndarray:
    """A one-qudit gate on qudit pos of n, as a Kronecker product with identities."""
    out = np.array([[1.0 + 0j]])
    for i in range(n):
        out = np.kron(out, g if i == pos else np.eye(d))
    return out


def embed_pair(g: np.ndarray, i: int, j: int, n: int, d: int) -> np.ndarray:
    """Apply a two-qudit gate to qudits (i, j) of n, i as first factor."""
    dim = d**n
    U = np.zeros((dim, dim), dtype=complex)
    g = np.asarray(g, dtype=complex)
    digits = all_vectors(n, d)
    sub_in = digits[:, i] * d + digits[:, j]
    # each (row, col) pair is hit by exactly one sub_out
    for sub_out in range(d * d):
        new = digits.copy()
        new[:, i], new[:, j] = divmod(sub_out, d)
        U[flat_index(new, d), np.arange(dim)] = g[sub_out, sub_in]
    return U


def gate_matrix(letter, n: int, d: int) -> np.ndarray:
    """Dense matrix of one gate letter: (kind, *args) with kind in F/P/CADD/W."""
    kind, *args = letter
    if kind == "F":
        return embed_single(fourier_gate(d), args[0], n, d)
    if kind == "P":
        return embed_single(phase_gate(d), args[0], n, d)
    if kind == "CADD":
        return embed_pair(cadd_gate(d), args[0], args[1], n, d)
    if kind == "W":
        return weyl(args[0], n, d)
    raise ValueError(f"unknown gate kind {kind!r}")


def clifford_generators(n: int, d: int) -> list[np.ndarray]:
    """F and P on each qudit, then CADD on each ordered pair, as dense embeddings."""
    gens = []
    for i in range(n):
        gens.append(embed_single(fourier_gate(d), i, n, d))
        gens.append(embed_single(phase_gate(d), i, n, d))
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.append(embed_pair(cadd_gate(d), i, j, n, d))
    return gens


def apply_tensor_power(U: np.ndarray, v: np.ndarray, t: int) -> np.ndarray:
    """Compute U^{x t} v without materializing U^{x t}.

    v lives on (C^m)^{x t} with m = U.shape[0], one vector or a block of
    them as the columns of a (m^t, k) array; U is applied along each of the
    t tensor factors in turn.
    """
    m = U.shape[0]
    v = np.asarray(v, dtype=complex)
    w = v.reshape((m,) * t + v.shape[1:])
    for axis in range(t):
        w = np.moveaxis(np.tensordot(U, w, axes=([1], [axis])), 0, axis)
    return w.reshape(v.shape)


def commutator_residual(T: Subspace, n: int, d: int) -> float:
    """`commutant.commutator_residuals` for one T: its support sorted by
    row, R(T) applied by one gather of k rows per nonzero row, and the
    block [v | R v] of the three `default_rng(0)` probes moved once per
    generator letter."""
    from stabkit.clifford import _apply_letters, generator_letters

    t = T.ambient // 2
    dim = d ** (t * n)
    rows, cols = R_support([T], n)
    order = np.argsort(rows[0], kind="stable")
    rows, cols = rows[0][order], cols[0][order]
    k = int(np.searchsorted(rows, rows[0], side="right"))
    targets, src = rows[::k], cols.reshape(-1, k).T  # src: (k, nonzero rows)

    def apply_R(V):
        out = np.zeros_like(V)
        out[targets] = np.take(V, src, axis=0).sum(axis=0)
        return out

    rng = np.random.default_rng(0)
    probes = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    probes /= np.linalg.norm(probes, axis=0)
    block = np.hstack([probes, apply_R(probes)])
    worst = 0.0
    for kind, *qudits in generator_letters(n):
        copies = [(kind, *[c * n + i for i in qudits]) for c in range(t)]
        moved = _apply_letters(copies, block, t * n, d)
        worst = max(worst, float(np.abs(apply_R(moved[:, :3]) - moved[:, 3:]).max()))
    return worst


def conjugate_weyl_check(U: np.ndarray, n: int, d: int):
    """`clifford.conjugate_weyl_check` through whole conjugates: the
    linearity pass forms U W_x U^dag as a d^n x d^n product for every
    phase point and reads its entries on the support of W_{Gamma x}.  The
    Weyl actions and characteristic functions are this module's."""
    pts = phase_points(n, d)
    Uh = U.conj().T

    def conjugate(targets, phases):
        return (U[:, targets] * phases) @ Uh

    images = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for k, (targets, phases) in enumerate(zip(*weyl_action(np.eye(2 * n, dtype=np.int64), n, d))):
        mods = np.abs(characteristic_function(conjugate(targets, phases), n, d)) * d ** (-n / 2)
        top = int(np.argmax(mods))
        if abs(mods[top] - 1.0) > _ATOL or np.delete(mods, top).max() > _ATOL:
            raise ValueError(f"not Clifford: no unique Weyl image for basis point {k}")
        images[:, k] = pts[top]
    Gamma = images % d
    J = gram_symplectic(2 * n, d)
    if ((Gamma.T @ J @ Gamma - J) % d).any():
        raise ValueError("conjugation action is not symplectic")
    cols = np.arange(d**n)
    sources, source_phases = weyl_action(pts, n, d)
    targets, target_phases = weyl_action(pts @ Gamma.T, n, d)
    out = np.zeros(len(pts), dtype=complex)
    for i, x in enumerate(pts):
        conj = conjugate(sources[i], source_phases[i])
        out[i] = np.vdot(target_phases[i], conj[targets[i], cols]) / d**n
        if abs(abs(out[i]) - 1.0) > _ATOL:
            raise ValueError(f"conjugation not linear at point {x}")
    return Gamma, out


# ---------------------------------------------------------------------------
# stabilizer states from dense projectors
# ---------------------------------------------------------------------------

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


def all_stabilizer_states(n: int, d: int) -> np.ndarray:
    """All stabilizer states, each translate W_z|M, 0> one dense product."""
    full = Subspace.full(2 * n, d)
    states = []
    for M in stabilizer.lagrangians(n, d):
        base = stabilizer_state(M, n, d)
        for z in coset_reps(full, M):
            v = weyl(z, n, d) @ base
            k = np.argmax(np.abs(v) > 1e-8)
            states.append(v * (abs(v[k]) / v[k]))
    out = np.array(states)
    assert len(out) == stabilizer.num_stabilizer_states(n, d)
    return out


def measurement_channel(M: Subspace, rho: np.ndarray, n: int, d: int) -> np.ndarray:
    """Dephasing to the stabilizer basis of M: d^{-n} sum_{x in M} W_x rho W_x^dag."""
    if rho.shape[0] != d**n:
        raise ValueError("dimension mismatch")
    out = np.zeros_like(rho, dtype=complex)
    for x in M.vectors():
        w = weyl(x, n, d)
        out += w @ rho @ w.conj().T
    return out / M.size


def state_list_overlaps(psi: np.ndarray, n: int, d: int) -> np.ndarray:
    """|<S|psi>|^2 for every S of `stabilizer.all_stabilizer_states`, in its order."""
    states = stabilizer.all_stabilizer_states(n, d)
    return np.abs(states.conj() @ np.asarray(psi, dtype=complex)) ** 2


def sample_stabilizer(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the enumerated stabilizer states."""
    states = stabilizer.all_stabilizer_states(n, d)
    return states[rng.integers(len(states))]


# ---------------------------------------------------------------------------
# dense POVM elements of the testing protocols
# ---------------------------------------------------------------------------

def anti_identity_operator(n: int) -> np.ndarray:
    """V = 2^{-n} (I^{x 6} + X^{x 6} + Y^{x 6} + Z^{x 6})^{x n} on 6n qubits.

    The tensor factors are ordered copy-major to act on (psi^{x 6}).
    """
    check_dim(2 ** (6 * n))
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]])]
    paulis.append(np.array([[0, -1j], [1j, 0]]))
    paulis.append(np.diag([1.0, -1.0]))
    v = sum(reduce(np.kron, [P] * 6) for P in paulis) / 2
    out = reduce(np.kron, [v] * n, np.array([[1.0 + 0j]]))
    # out acts qudit-major ((copy factors of qubit 1), ...); factor i * n + j
    # of the copy-major order is factor j * 6 + i of the qudit-major one
    ordering = [j * 6 + i for i in range(6) for j in range(n)]
    perm = linear_index_map(permutation_matrix(ordering), 6 * n, 1, 2)
    return out[np.ix_(perm, perm)]


def qubit_accept_operator_route(psi: np.ndarray) -> float:
    """tr[psi^{x 6} (I + V)/2] with V the anti-identity action."""
    n = round(math.log2(len(psi)))
    V = anti_identity_operator(n)
    v6 = kron_power_vec(psi, 6)
    return float((0.5 * (1.0 + v6.conj() @ V @ v6)).real)


def v_s_operator(s: int, n: int, d: int) -> np.ndarray:
    """V_s = d^{-n} sum_x (W_x (x) W_x^dag)^{x s} on 2s blocks of n qudits."""
    check_dim(d ** (2 * s * n))
    dim = d ** (2 * s * n)
    V = np.zeros((dim, dim), dtype=complex)
    for x in phase_points(n, d):
        w = weyl(x, n, d)
        pair = np.kron(w, w.conj().T)
        term = np.array([[1.0 + 0j]])
        for _ in range(s):
            term = np.kron(term, pair)
        V += term
    return V / d**n


def v_s_permutation_action(s: int, n: int, d: int) -> np.ndarray:
    """The same V_s as a basis permutation: x -> (O (x) I_n) x with
    O = 1 - s^{-1} p p^T, p the length-2s parity vector (-1,1,...,-1,1)."""
    sinv = pow(s, -1, d)
    par = np.array([(-1) ** (k + 1) for k in range(2 * s)], dtype=np.int64) % d
    O = (np.eye(2 * s, dtype=np.int64) - sinv * np.outer(par, par)) % d
    dim = d ** (2 * s * n)
    perm = linear_index_map(O, 2 * s, n, d)
    M = np.zeros((dim, dim))
    M[perm, np.arange(dim)] = 1.0
    return M


def three_copy_operator(n: int, d: int) -> np.ndarray:
    """V = d^{-n} sum_x A_x^{x 3}."""
    check_dim(d ** (3 * n))
    aops = point_operators(n, d)
    dim = d ** (3 * n)
    V = np.zeros((dim, dim), dtype=complex)
    for a in aops:
        V += np.kron(np.kron(a, a), a)
    return V / d**n


# ---------------------------------------------------------------------------
# permutations of tensor factors
# ---------------------------------------------------------------------------

def permutation_operator(perm, subdim: int) -> np.ndarray:
    """Operator permuting the tensor factors of (C^subdim)^{x len(perm)}."""
    t = len(perm)
    dim = subdim**t
    P = np.zeros((dim, dim))
    P[linear_index_map(permutation_matrix(perm), t, 1, subdim), np.arange(dim)] = 1.0
    return P


def symmetrizer(t: int, subdim: int) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^subdim)^{x t}."""
    dim = subdim**t
    acc = np.zeros((dim, dim))
    for perm in itertools.permutations(range(t)):
        acc += permutation_operator(perm, subdim)
    return acc / math.factorial(t)


# ---------------------------------------------------------------------------
# design quantities over all of Sigma_{t,t}(d), through the full Gram matrix
# ---------------------------------------------------------------------------

def permutation_subspaces(t: int, d: int) -> dict[Subspace, tuple[int, ...]]:
    """Map T_pi -> pi over all permutations of t copies."""
    out = {}
    for perm in itertools.permutations(range(t)):
        out[subspace_from_matrix(permutation_matrix(perm), d)] = perm
    return out


def frobenius_distance(gamma1: np.ndarray, gamma2: np.ndarray, G: np.ndarray) -> float:
    """|| sum (gamma1 - gamma2)_T R(T) ||_F through the Gram matrix."""
    diff = np.asarray(gamma1) - np.asarray(gamma2)
    val = diff @ G @ diff
    return float(np.sqrt(max(val.real, 0.0)))


def orbit_coefficients(psi: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """gamma with E_U[(U|psi><psi|U^dag)^{x t}] = sum_T gamma_T R(T).

    Solves the Gram system tr[R(T)^dag R(T')] gamma = m in the least-squares
    sense; below n = t - 1 the R(T) are linearly dependent and the returned
    gamma is the minimum-norm representative.
    """
    G = commutant.R_gram(commutant.stochastic_lagrangians(t, d), n)
    m = orbit_moment_vector(psi, t, n, d)
    gamma, *_ = np.linalg.lstsq(G, m, rcond=None)
    return gamma


def class_coefficients(gamma: np.ndarray, t: int, d: int) -> np.ndarray:
    """Collapse a coefficient vector that is constant on each class, to 1e-9."""
    classes = sigma_classes(t, d)
    out = np.empty(len(classes))
    for i, cls in enumerate(classes):
        vals = gamma[list(cls)]
        if np.ptp(vals) > 1e-9:
            raise ValueError("coefficients are not constant on a class")
        out[i] = vals.mean()
    return out


def design_gap(gamma: np.ndarray, t: int, n: int, d: int, G=None) -> float:
    """Frobenius distance of a commutant operator to the Haar moment."""
    Ts = commutant.stochastic_lagrangians(t, d)
    if G is None:
        G = commutant.R_gram(Ts, n)
    return frobenius_distance(gamma, haar_moment_coefficients(t, n, d), G)


def design_constraints(fiducials, t: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The equality constraints A_eq p = b_eq of find_design_weights, from
    the full Gram matrix and moment vectors read at the class representatives."""
    reps = [cls[0] for cls in sigma_classes(t, d)]
    G = commutant.R_gram(commutant.stochastic_lagrangians(t, d), n)
    m_haar = G @ haar_moment_coefficients(t, n, d)
    moments = np.array([orbit_moment_vector(psi, t, n, d)[reps] for psi in fiducials])
    A_eq = np.vstack([moments[:, 1:].T, np.ones((1, len(fiducials)))])
    return A_eq, np.concatenate([m_haar[reps][1:], [1.0]])


def find_design_weights(fiducials, t: int, n: int, d: int) -> np.ndarray:
    """`moments.find_design_weights` with the Haar products and the
    fiducial moments read off the full Gram matrix and moment vectors."""
    A_eq, b_eq = design_constraints(fiducials, t, n, d)
    p = _nnls(A_eq, b_eq)
    residual = float(np.linalg.norm(A_eq @ p - b_eq))
    if residual > _DESIGN_ATOL:
        raise InfeasibleDesign(residual)
    return p / p.sum()


def mixture_design_gap(fiducials, weights, t: int, n: int, d: int) -> float:
    """Frobenius distance of a weighted twirled-orbit mixture to the Haar
    moment, through moment vectors over all of Sigma and the full Gram."""
    G = commutant.R_gram(commutant.stochastic_lagrangians(t, d), n)
    m_mix = sum(
        w * orbit_moment_vector(psi, t, n, d) for w, psi in zip(weights, fiducials)
    )
    gamma = np.linalg.lstsq(G, m_mix, rcond=None)[0]
    return design_gap(gamma, t, n, d, G=G)
