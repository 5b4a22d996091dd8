"""Exact linear algebra over Z_d (d prime) and the quadratic forms mod D.

Vectors are numpy integer arrays with entries reduced into [0, d).  Quadratic
values live mod D, where D = d for odd d and D = 2d for d = 2; they are always
computed from the canonical integer lifts in [0, d).

This module owns the flat-index convention used throughout stabkit: a digit
row over an alphabet of size `base` has flat index int(digits, base), most
significant digit first (`all_vectors`, `flat_index`).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def form_modulus(d: int) -> int:
    """D = d for odd d, 2d for even d."""
    return d if d % 2 == 1 else 2 * d


def asvec(x, d: int) -> np.ndarray:
    return np.asarray(x, dtype=np.int64) % d


def _place_values(k: int, base: int) -> np.ndarray:
    return base ** np.arange(k - 1, -1, -1, dtype=np.int64)


def all_vectors(k: int, base: int) -> np.ndarray:
    """All base^k digit rows of length k, in flat index order.

    `base` need not be prime: it is only the size of the alphabet.
    """
    idx = np.arange(base**k, dtype=np.int64)
    return (idx[:, None] // _place_values(k, base)) % base


def flat_index(digits, base: int) -> np.ndarray:
    """Flat index of each digit row (last axis); inverse of `all_vectors`."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ _place_values(digits.shape[-1], base)


def _rref_rows(rows: list[list[int]], cols: int, d: int) -> tuple[list[list[int]], list[int]]:
    """Reduce rows (Python int lists with entries in [0, d)) in place; see `rref`."""
    pivot_cols: list[int] = []
    n = len(rows)
    r = 0
    for c in range(cols):
        for i in range(r, n):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[r]
        if prow[c] != 1:
            inv = pow(prow[c], -1, d)
            prow = [x * inv % d for x in prow]
        rows[r] = prow
        # the pivot row is zero left of c, so each update starts at c
        tail = prow[c:]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                g = d - f
                rows[i][c:] = [(x + g * y) % d for x, y in zip(rows[i][c:], tail)]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivot_cols


# '0'/'1' characters to digit bytes, to unpack a formatted word
_BIT_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=128)
def _bit_columns(cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The bit cols-1-j of each column j < cols < 64 in a word, and its place value."""
    shifts = np.arange(cols - 1, -1, -1, dtype=np.int64)
    return shifts, 1 << shifts


@lru_cache(maxsize=4096)
def _bit_row(word: int, cols: int) -> tuple[int, ...]:
    """The digit tuple of a row packed into `word`, column 0 the most significant bit."""
    return tuple(format(word, f"0{cols}b").encode().translate(_BIT_DIGITS))


def _rref_bits(a: np.ndarray) -> tuple[list[int], list[int]]:
    """`_rref_rows` for d = 2 on a 2-D int64 array, entries taken mod 2.

    Each row is packed into one Python int, column 0 the most significant
    bit, so integer order is key order and a row's pivot column is
    cols - bit_length.  A row is reduced by the basis rows in decreasing
    order, each XORed in iff that lowers the row (iff the row holds the
    basis row's leading bit), and kept if anything is left; then each
    pivot is cleared from the rows above it.  Returns the reduced rows,
    packed, in decreasing order, and their pivot columns.
    """
    cols = a.shape[1]
    a = a & 1  # equals a % 2 for every int64
    if cols < 64:
        words = (a @ _bit_columns(cols)[1]).tolist()
    else:
        words = [int("".join(map(str, row)), 2) for row in a.tolist()]
    basis: list[int] = []  # distinct leading bits, in decreasing order
    for w in words:
        for b in basis:
            if w ^ b < w:
                w ^= b
        if w:
            basis.append(w)
            basis.sort(reverse=True)
    for i in range(1, len(basis)):
        b = basis[i]
        for j in range(i):
            if basis[j] ^ b < basis[j]:
                basis[j] ^= b
    return basis, [cols - b.bit_length() for b in basis]


def _reduce(a: np.ndarray, d: int) -> tuple[list, list[int]]:
    """The rows and pivot columns of the canonical RREF of a 2-D int64
    array, entries taken mod d: rows packed into ints by `_rref_bits` for
    d = 2, Python int lists otherwise."""
    if d == 2:
        return _rref_bits(a)
    return _rref_rows((a % d).tolist(), a.shape[1], d)


def rref(matrix, d: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_d.

    Returns (R, pivot_cols) where R has zero rows removed, each pivot is 1,
    and pivot columns are cleared above and below.
    """
    a = np.atleast_2d(np.array(matrix, dtype=np.int64))
    reduced = Subspace.__new__(Subspace)._from_rref(*_reduce(a, d), d, a.shape[1])
    return np.array(reduced.basis), list(reduced.pivots)


def nullspace(matrix, d: int) -> np.ndarray:
    """Basis (rows) of {x : M x = 0 mod d}."""
    r, pivots = rref(matrix, d)
    free = [c for c in range(r.shape[1]) if c not in pivots]
    basis = np.eye(r.shape[1], dtype=np.int64)[free]
    basis[:, pivots] = -r[:, free].T % d
    return basis


def solve(matrix, rhs, d: int) -> np.ndarray | None:
    """One solution x of M x = rhs mod d, or None if inconsistent."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64))
    r, pivots = rref(np.hstack([a, asvec(rhs, d).reshape(-1, 1)]), d)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    x[pivots] = r[:, -1]
    return x


class Subspace:
    """A subspace of Z_d^m, stored as a canonical RREF basis.

    Two Subspace values are equal iff they are the same set of vectors; the
    canonical form makes them usable as dict/set keys.  `pivots` holds the
    pivot column of each basis row.
    """

    __slots__ = ("d", "ambient", "basis", "pivots", "_key")

    def __init__(self, basis_rows, d: int, ambient: int | None = None):
        if not is_prime(d):
            raise ValueError(f"d={d} is not prime")
        rows = np.atleast_2d(np.asarray(basis_rows, dtype=np.int64))
        if rows.size == 0:
            if ambient is None:
                raise ValueError("ambient dimension required for the zero subspace")
            rows = rows.reshape(0, ambient)
        if ambient is not None and rows.shape[1] != ambient:
            raise ValueError("ambient dimension mismatch")
        self._from_rref(*_reduce(rows, d), d, rows.shape[1])

    def _from_rref(self, rows, pivots, d: int, ambient: int, basis=None) -> "Subspace":
        """Fill this Subspace from the rows and pivots of a canonical RREF
        and return it: rows as `_reduce` gives them, or the key's digit
        tuples with `basis` their read-only int64 array."""
        if basis is None:
            if d == 2 and ambient < 64:
                basis = np.array(rows, dtype=np.int64)[:, None] >> _bit_columns(ambient)[0] & 1
            rows = [_bit_row(w, ambient) for w in rows] if d == 2 else list(map(tuple, rows))
            if basis is None:
                basis = np.array(rows, dtype=np.int64).reshape(len(rows), ambient)
            basis.setflags(write=False)
        self.d, self.ambient, self.basis, self.pivots = d, ambient, basis, tuple(pivots)
        self._key = (d, ambient, tuple(rows))
        return self

    @classmethod
    def zero(cls, ambient: int, d: int) -> "Subspace":
        return cls(np.zeros((0, ambient), dtype=np.int64), d, ambient)

    @classmethod
    def full(cls, ambient: int, d: int) -> "Subspace":
        return cls(np.eye(ambient, dtype=np.int64), d, ambient)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Subspace(d={self.d}, ambient={self.ambient}, dim={self.dim})"

    @property
    def size(self) -> int:
        return self.d ** self.dim

    def vectors(self) -> np.ndarray:
        """All d^dim member vectors, ordered by coefficient tuple."""
        return (all_vectors(self.dim, self.d) @ self.basis) % self.d

    def _clear(self, rows: np.ndarray) -> np.ndarray:
        """rows - rows[:, pivots] @ basis mod d: each row less the combination
        of this basis that matches it at the pivot columns, so zero there,
        and zero everywhere iff the row lies in this space."""
        return (rows - rows[:, list(self.pivots)] @ self.basis) % self.d

    def contains(self, v) -> bool:
        return not self._clear(asvec(v, self.d)[None]).any()

    def contains_space(self, other: "Subspace") -> bool:
        return not self._clear(other.basis).any()

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        # Zassenhaus: with B' = B - B[:, piv_A] A, a combination c of the rows
        # [B' | B' - B] vanishes on the left iff c B lies in A; its right half is -c B
        cleared = self._clear(other.basis)
        rows, pivots = _reduce(np.hstack([cleared, cleared - other.basis]), self.d)
        return _trailing_span(rows, pivots, 2 * self.ambient, self.ambient, self.d)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(np.vstack([self.basis, other.basis]), self.d, self.ambient)

    def complement(self, gram: np.ndarray) -> "Subspace":
        """Orthogonal complement w.r.t. the bilinear form with Gram matrix `gram`."""
        if gram.shape != (self.ambient, self.ambient):
            raise ValueError("form dimension does not match ambient dimension")
        if self.dim == 0:
            return Subspace.full(self.ambient, self.d)
        return Subspace(nullspace((self.basis @ gram) % self.d, self.d), self.d, self.ambient)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient != other.ambient or self.d != other.d:
            raise ValueError("subspaces live in different ambient spaces")


def _trailing_span(rows, pivots: list[int], cols: int, start: int, d: int) -> Subspace:
    """The span of the reduced rows (as `_reduce` gives them, of `cols` columns)
    with pivot at least `start`, cut to the columns from `start` on: they are
    its canonical RREF, zero before `start`, so packed d = 2 rows stay as they are."""
    k = bisect_left(pivots, start)
    cut = rows[k:] if d == 2 else [row[start:] for row in rows[k:]]
    piv = [p - start for p in pivots[k:]]
    return Subspace.__new__(Subspace)._from_rref(cut, piv, d, cols - start)


# matrices per block of the batched reduction in `rref_stack`
_RREF_BLOCK = 4096

# the most columns whose rows `rref_stack` packs into one unsigned word for d = 2
_WORD_COLUMNS = 64


# the largest d whose pivots `_rref_block` inverts by a table lookup
_INVERSE_TABLE_MAX = 2**16


@lru_cache(maxsize=16)
def _inverses(d: int) -> np.ndarray:
    """x^{-1} mod d at index x in [1, d) (0 at index 0), read-only."""
    table = np.array([0] + [pow(x, -1, d) for x in range(1, d)], dtype=np.int64)
    table.setflags(write=False)
    return table


def _rref_block(a: np.ndarray, d: int) -> None:
    """Reduce each matrix of an (m, r, c) stack with entries in [0, d), in place.

    Column by column for all matrices at once, with the row operations of
    `_rref_rows`, so every matrix ends in its canonical RREF with the zero
    rows last.  A pivot row is zero left of its pivot column, so each step
    touches only the columns from the pivot on.  Residues are taken as
    x - (x // d) d, which numpy computes far faster than x % d.  Pivots
    are inverted by a lookup in the table of inverses mod d, or one by
    one past _INVERSE_TABLE_MAX.
    """
    m, r, c = a.shape
    rank = np.zeros(m, dtype=np.int64)
    row = np.arange(r)
    table = _inverses(d).astype(a.dtype) if d <= _INVERSE_TABLE_MAX else None
    for col in range(c):
        free = (a[:, :, col] != 0) & (row >= rank[:, None])
        sel = np.flatnonzero(free.any(axis=1))
        if not len(sel):
            continue
        src, dst = free[sel].argmax(axis=1), rank[sel]
        prow = a[sel, src, col:]
        a[sel, src, col:] = a[sel, dst, col:]
        if table is not None:
            inverse = table[prow[:, 0]]
        else:
            inverse = np.array([pow(x, -1, d) for x in prow[:, 0].tolist()], dtype=a.dtype)
        prow *= inverse[:, None]
        prow -= prow // d * d
        a[sel, dst, col:] = prow
        factor = a[sel, :, col]
        factor[np.arange(len(sel)), dst] = 0
        rest = a[sel, :, col:] - factor[:, :, None] * prow[:, None, :]
        a[sel, :, col:] = rest - rest // d * d
        rank[sel] += 1


def _rref_words(a: np.ndarray, c: int) -> None:
    """`_rref_block` for d = 2 on an (m, r) stack of rows of c columns
    packed into unsigned words, column 0 the most significant bit, in place.

    After the columns left of col are done, a row that is no pivot row is
    zero left of col, so the rows whose leading bit is col are exactly the
    candidates for its pivot.  The first of them is XORed into every row
    of its matrix that holds the bit, itself excepted.  The pivot rows
    then have distinct leading bits and every other row is zero, so
    sorting the rows of each matrix in decreasing order gives its RREF.
    """
    if not a.size:
        return
    matrix = np.arange(len(a))
    one = a.dtype.type(1)
    for col in range(c):
        high = a >> a.dtype.type(8 * a.itemsize - 1 - col)
        lead = high == one
        src = lead.argmax(axis=1)
        # zero where a matrix has no pivot in this column: XOR does nothing
        prow = a[matrix, src] * lead[matrix, src]
        a ^= (high & one) * prow[:, None]
        a[matrix, src] ^= prow
    a[:] = np.sort(a, axis=1)[:, ::-1]


def rref_stack(stack, d: int) -> np.ndarray:
    """The canonical RREF of every matrix of an (m, r, c) stack over Z_d.

    Returns an (m, r, c) array: the rows of rref(stack[i], d), then zero
    rows, in the integer type of the stack (widened if it cannot hold
    every residue).  Blocks of matrices are reduced at once: for d = 2
    with at most 64 columns each row is packed into one unsigned word
    (`np.packbits`), reduced by XOR (`_rref_words`) and unpacked, otherwise
    the digits are swept in a narrow integer type (`_rref_block`).
    """
    if (d - 1) ** 2 + d >= 2**63:
        raise ValueError(f"d={d} is too large for int64 row operations")
    stack = np.asarray(stack)
    c = stack.shape[-1]
    # products of two residues must fit the working type
    work = np.int16 if (d - 1) ** 2 + d < 2**15 else np.int64
    packed = d == 2 and c <= _WORD_COLUMNS
    # packbits fills the bytes of a big-endian word from its most significant bit
    big = np.dtype(f">u{np.min_scalar_type(2**c - 1).itemsize}")
    out = np.empty(stack.shape, dtype=np.result_type(stack.dtype, np.min_scalar_type(d - 1)))
    for lo in range(0, len(stack), _RREF_BLOCK):
        a = stack[lo:lo + _RREF_BLOCK]
        if packed:
            digits = np.packbits((a & 1).astype(np.uint8, copy=False), axis=-1)
            digits = np.pad(digits, [(0, 0), (0, 0), (0, big.itemsize - digits.shape[-1])])
            words = digits.view(big)[..., 0].astype(big.newbyteorder("="))
            _rref_words(words, c)
            a = np.unpackbits(words.astype(big)[..., None].view(np.uint8), axis=-1, count=c)
        else:
            a = (np.asarray(a, dtype=np.int64) % d).astype(work)
            _rref_block(a, d)
        out[lo:lo + len(a)] = a
    return out


def subspaces(stack, d: int) -> tuple[Subspace, ...]:
    """Subspace(stack[i], d) for every matrix of an (m, r, c) stack.

    One `rref_stack` call gives every canonical basis; each Subspace holds
    a read-only view of it, with the pivots and key a single `Subspace`
    call computes, and is not reduced again.
    """
    if not is_prime(d):
        raise ValueError(f"d={d} is not prime")
    return _subspaces_from_rref(rref_stack(stack, d), d)


def _subspaces_from_rref(reduced, d: int) -> tuple[Subspace, ...]:
    """A Subspace for every matrix of an (m, r, c) stack of canonical RREF
    bases (the rows of the RREF, then zero rows), without reducing it."""
    import gc

    reduced = reduced.astype(np.int64, copy=False)
    reduced.setflags(write=False)
    c = reduced.shape[2]
    out = []
    # equal rows and pivot tuples recur across the stack: keep one copy of each
    shared: dict[tuple, tuple] = {}
    # only acyclic objects are built below, so collections would find nothing
    collecting = gc.isenabled()
    gc.disable()
    try:
        for lo in range(0, len(reduced), _RREF_BLOCK):
            block = reduced[lo:lo + _RREF_BLOCK]
            nonzero = block != 0
            ranks = nonzero.any(axis=2).sum(axis=1).tolist()
            pivots = nonzero.argmax(axis=2).tolist()
            for mat, rows, k, piv in zip(block, block.tolist(), ranks, pivots):
                rows = tuple([shared.setdefault(row, row) for row in map(tuple, rows[:k])])
                piv = tuple(piv[:k])
                piv = shared.setdefault(piv, piv)
                out.append(Subspace.__new__(Subspace)._from_rref(rows, piv, d, c, mat[:k]))
    finally:
        if collecting:
            gc.enable()
    return tuple(out)


# --- bilinear forms ------------------------------------------------------

def gram_dot(m: int, d: int) -> np.ndarray:
    return np.eye(m, dtype=np.int64) % d


def gram_symplectic(two_n: int, d: int) -> np.ndarray:
    """Gram matrix of [x, y] = p.q' - q.p' for x = (p, q) in Z_d^{2n}."""
    if two_n % 2:
        raise ValueError("symplectic form needs even dimension")
    n = two_n // 2
    j = np.zeros((two_n, two_n), dtype=np.int64)
    j[:n, n:] = np.eye(n, dtype=np.int64)
    j[n:, :n] = -np.eye(n, dtype=np.int64)
    return j % d


def dot(x, y, d: int) -> int:
    return int(asvec(x, d) @ asvec(y, d)) % d


def symplectic_form(x, y, d: int) -> int:
    """[x, y] = p.q' - q.p', reduced mod d."""
    u, v = asvec(x, d), asvec(y, d)
    n = len(u) // 2
    return int(u[:n] @ v[n:] - u[n:] @ v[:n]) % d


# --- quadratic forms -----------------------------------------------------

def quadratic_q(x, d: int) -> int:
    """q(x) = x.x mod D, computed from the integer lifts in [0, d)."""
    v = asvec(x, d)
    return int(v @ v) % form_modulus(d)


def quadratic_Q_vec(v, d: int) -> int:
    """Q(x, y) = x.x - y.y mod D for v = (x, y), from the integer lifts."""
    w = asvec(v, d)
    t = len(w) // 2
    return int(w[:t] @ w[:t] - w[t:] @ w[t:]) % form_modulus(d)


def is_q_isotropic(basis, d: int) -> bool:
    """True iff q(v) = v.v vanishes mod D on the row span of `basis`.

    By polarization it suffices that q vanishes on each row and that the
    dot product vanishes mod d on each pair of distinct rows.
    """
    b = np.asarray(basis, dtype=np.int64) % d
    g = b @ b.T
    if (np.diagonal(g) % form_modulus(d)).any():
        return False
    g %= d
    np.fill_diagonal(g, 0)
    return not g.any()


# partial tuples per block of `extend_tuples`, and digit rows per block of
# the candidate scan in `echelon_subspaces`
_FRONTIER_BLOCK = 4096
# candidate rows per block of the orthogonality table in `echelon_stack`
_FOLLOWS_BLOCK = 256


def extend_tuples(chosen, values, want, slot_ok, group=None):
    """Every extension of the rows of `chosen` to len(slot_ok) entries.

    Entry i of a row is an index c with slot_ok[i, c] and
    values[row[l], c] == want[i, l] for every earlier entry l.  With
    `group`, the group of each row of `chosen`, the rows of group g read
    tables of their own: values, want and slot_ok are then stacks with a
    leading group axis, read at values[g], want[g] and slot_ok[g], and
    entries are counted along slot_ok.shape[1].  The rows are extended
    breadth-first, one entry at a time, for a block of the frontier at
    once.  Returns an (rows, entries) index array listing the extensions
    of each row of `chosen` in turn, in lexicographic order, and with
    `group` the group of each row as well.
    """
    grouped = group is not None
    chosen = np.asarray(chosen, dtype=np.int64)
    if not grouped:
        values, want, slot_ok = values[None], want[None], slot_ok[None]
        group = np.zeros(len(chosen), dtype=np.int64)
    for i in range(chosen.shape[1], slot_ok.shape[1]):
        pieces, owners = [np.empty((0, i + 1), dtype=np.int64)], [group[:0]]
        for lo in range(0, len(chosen), _FRONTIER_BLOCK):
            block, g = chosen[lo:lo + _FRONTIER_BLOCK], group[lo:lo + _FRONTIER_BLOCK]
            ok = slot_ok[g, i]
            for l in range(i):
                ok &= values[g, block[:, l]] == want[g, i, l][:, None]
            parent, entry = np.nonzero(ok)
            pieces.append(np.concatenate([block[parent], entry[:, None]], axis=1))
            owners.append(g[parent])
        chosen, group = np.concatenate(pieces), np.concatenate(owners)
    return (chosen, group) if grouped else chosen


def echelon_subspaces(gram: np.ndarray, d: int, k: int, admissible) -> tuple[Subspace, ...]:
    """`echelon_stack` as Subspace objects, in the same order."""
    return _subspaces_from_rref(echelon_stack(gram, d, k, admissible), d)


def echelon_stack(gram: np.ndarray, d: int, k: int, admissible) -> np.ndarray:
    """All k-dim subspaces with an admissible, pairwise `gram`-orthogonal basis,
    as a read-only (m, k, ambient) stack of their canonical bases in key
    order, in the integer type np.min_scalar_type(d - 1).

    admissible(vectors) returns a boolean mask over rows of vectors.  The
    rows of each subspace's canonical RREF basis must be admissible and
    pairwise orthogonal w.r.t. `gram` (a row need not be orthogonal to
    itself); the caller's property must hold on the whole span iff it holds
    on such a basis.  Each subspace is built once, as its RREF basis: the
    candidate rows (leading entry 1) are chosen by `extend_tuples` in
    decreasing pivot order, each with zeros at the pivot columns chosen
    before it, so every partial tuple can still be completed to a basis
    pattern.  The candidates are in lexicographic order, so one lexsort of
    the index tuples, read in increasing pivot order, puts the subspaces
    in key order.  The digit rows are scanned in blocks; the dimension cap
    guards the scan, d^ambient rows taken as a square table, and the
    running candidate count, the side of the square boolean orthogonality
    table, which is filled `_FOLLOWS_BLOCK` rows at a time.
    """
    from .phase_space import check_dim, square_side  # phase_space imports gf

    if not is_prime(d):
        raise ValueError(f"d={d} is not prime")
    ambient = gram.shape[0]
    check_dim(square_side(d**ambient))
    place = _place_values(ambient, d)
    narrow = np.min_scalar_type(d - 1)
    cand, lead, count = [], [], 0
    for lo in range(0, d**ambient, _FRONTIER_BLOCK):
        vecs = np.arange(lo, min(lo + _FRONTIER_BLOCK, d**ambient))[:, None] // place % d
        first = np.argmax(vecs != 0, axis=1)
        keep = vecs.any(axis=1) & (vecs[np.arange(len(vecs)), first] == 1) & admissible(vecs)
        cand.append(vecs[keep].astype(narrow))
        lead.append(first[keep])
        count += len(cand[-1])
        check_dim(count)
    cand, lead = np.concatenate(cand), np.concatenate(lead)
    # follows[a, b]: row b may be chosen after row a, in blocks of rows a
    follows = np.empty((count, count), dtype=bool)
    right = gram @ cand.T
    for lo in range(0, count, _FOLLOWS_BLOCK):
        a = slice(lo, lo + _FOLLOWS_BLOCK)
        follows[a] = ((cand[a] @ right) % d == 0) & (lead < lead[a, None]) & (cand.T[lead[a]] == 0)
    slot_ok = lead[None, :] >= k - 1 - np.arange(k)[:, None]
    rows = extend_tuples(np.zeros((1, 0)), follows, np.ones((k, k), dtype=bool), slot_ok)[:, ::-1]
    if k:  # lexsort needs a key; the zero subspace is one tuple
        rows = rows[np.lexsort(rows.T[::-1])]
    # each tuple is already a canonical RREF basis of admissible rows,
    # pairwise orthogonal: checked on the whole stack at once
    stack = cand[rows]
    wide = stack.astype(np.int64)
    assert admissible(wide.reshape(-1, ambient)).all()
    assert not ((wide @ gram @ wide.transpose(0, 2, 1)) % d * ~np.eye(k, dtype=bool)).any()
    stack.setflags(write=False)
    return stack


# --- cosets and orbits ---------------------------------------------------

def quotient_basis(sup: Subspace, sub: Subspace) -> np.ndarray:
    """Rows of sup.basis whose classes form a basis of sup / sub.

    The rows are chosen greedily in order; sub must be contained in sup.
    """
    stack = np.vstack([sub.basis, sup.basis])
    # pivot columns of the transpose = first maximal independent set of rows
    _, pivots = rref(stack.T, sup.d)
    return sup.basis[[p - sub.dim for p in pivots[sub.dim:]]]


def coset_reps(sup: Subspace, sub: Subspace) -> np.ndarray:
    """Lexicographically least representatives of sup / sub cosets.

    The least member of v + sub is the one with zeros at the pivot columns
    of sub's RREF basis.  Those members are a subspace of sup of dimension
    dim sup - dim sub, spanned by sup's basis with the columns cleared, and
    `Subspace.vectors` lists the members of an RREF basis in sorted order.
    """
    if not sup.contains_space(sub):
        raise ValueError("sub is not contained in sup")
    return Subspace(sub._clear(sup.basis), sup.d, sup.ambient).vectors()


def image_indices(reference, images, d: int) -> np.ndarray:
    """Where a bijection of a set of subspaces sends each of them.

    reference is an (m, r, c) stack of canonical bases of one rank, in
    lexicographic order of their flattened rows (the key order of
    `Subspace`); images[i] spans the image of reference[i].  Returns table
    with span(images[i]) = span(reference[table[i]]): the images,
    canonicalised and sorted, must equal the reference.
    """
    m = len(reference)
    canonical = rref_stack(images, d).reshape(m, -1)
    order = np.lexsort(canonical.T[::-1])
    if not np.array_equal(canonical[order], np.reshape(reference, (m, -1))):
        raise ValueError("the images are not a permutation of the reference")
    table = np.empty(m, dtype=np.int64)
    table[order] = np.arange(m)
    return table


def generating_set(group, d: int) -> list[np.ndarray]:
    """Elements of a matrix group over Z_d, in order, each kept only if the
    subgroup generated by those kept so far does not contain it."""
    t = len(group[0])
    gens: list[np.ndarray] = []
    seen = {np.eye(t, dtype=np.int64).tobytes()}
    for O in group:
        if O.tobytes() in seen:
            continue
        gens.append(O)
        frontier = [np.frombuffer(b, dtype=np.int64).reshape(t, t) for b in seen]
        while frontier:
            new = []
            for g in gens:
                for x in np.matmul(frontier, g) % d:
                    if x.tobytes() not in seen:
                        seen.add(x.tobytes())
                        new.append(x)
            frontier = new
    return gens


def orbits(images) -> list[np.ndarray]:
    """Orbits of a group action on the items 0, ..., n - 1.

    images is a (generators, n) integer table: images[g, i] is the image of
    item i under generator g, each row a permutation (else ValueError).
    Every item is labelled with the least item of its orbit: labels are
    propagated along each generator and its inverse and label chains are
    halved after each sweep, until a sweep changes nothing.  Returns the
    orbits as ascending index arrays, in the order of their first items.
    """
    images = np.asarray(images, dtype=np.int64)
    label = np.arange(images.shape[1])
    if ((images < 0) | (images >= len(label))).any():
        raise ValueError("an image table is not a permutation of the items")
    # each inverse by one scatter; a repeated image leaves a hole (0) in it
    inverses = np.zeros_like(images)
    np.put_along_axis(inverses, images, label[None], axis=1)
    if (np.take_along_axis(images, inverses, axis=1) != label).any():
        raise ValueError("an image table is not a permutation of the items")
    while True:
        before = label
        for image, inverse in zip(images, inverses):
            label = np.minimum(label, label[image])
            label = np.minimum(label, label[inverse])
        label = label[label]
        if np.array_equal(label, before):
            break
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)
