"""Exact linear algebra over Z_d (d prime) and the quadratic forms mod D.

Vectors are numpy integer arrays with entries reduced into [0, d).  Quadratic
values live mod D, where D = d for odd d and D = 2d for d = 2; they are always
computed from the canonical integer lifts in [0, d).

This module owns the flat-index convention used throughout stabkit: a digit
row over an alphabet of size `base` has flat index int(digits, base), most
significant digit first (`all_vectors`, `flat_index`).
"""

from __future__ import annotations

import numpy as np


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(n**0.5) + 1):
        if n % p == 0:
            return False
    return True


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


def sum_index(k: int, base: int) -> np.ndarray:
    """table[i, j] = flat index of (digit row i + digit row j) mod base."""
    table = np.zeros((base**k, base**k), dtype=np.int64)
    for col, place in zip(all_vectors(k, base).T, _place_values(k, base)):
        table += (col[:, None] + col[None, :]) % base * place
    return table


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
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                g = d - f
                rows[i] = [(x + g * y) % d for x, y in zip(rows[i], prow)]
        pivot_cols.append(c)
        r += 1
        if r == n:
            break
    return rows[:r], pivot_cols


def rref(matrix, d: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over Z_d.

    Returns (R, pivot_cols) where R has zero rows removed, each pivot is 1,
    and pivot columns are cleared above and below.
    """
    a = np.atleast_2d(np.array(matrix, dtype=np.int64)) % d
    if a.shape[0] == 0 or a.shape[1] == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), []
    rows, pivot_cols = _rref_rows(a.tolist(), a.shape[1], d)
    return np.array(rows, dtype=np.int64).reshape(len(rows), a.shape[1]), pivot_cols


def nullspace(matrix, d: int) -> np.ndarray:
    """Basis (rows) of {x : M x = 0 mod d}."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64)) % d
    rows, cols = a.shape
    r, pivots = rref(a, d)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, p in enumerate(pivots):
            basis[k, p] = (-r[i, f]) % d
    return basis


def solve(matrix, rhs, d: int) -> np.ndarray | None:
    """One solution x of M x = rhs mod d, or None if inconsistent."""
    a = np.atleast_2d(np.asarray(matrix, dtype=np.int64)) % d
    b = asvec(rhs, d)
    aug = np.hstack([a, b.reshape(-1, 1)])
    r, pivots = rref(aug, d)
    cols = a.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, p in enumerate(pivots):
        x[p] = r[i, cols]
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
        rows = np.asarray(basis_rows, dtype=np.int64)
        if rows.size == 0:
            if ambient is None:
                raise ValueError("ambient dimension required for the zero subspace")
            rows = rows.reshape(0, ambient)
        rows = np.atleast_2d(rows) % d
        if ambient is not None and rows.shape[1] != ambient:
            raise ValueError("ambient dimension mismatch")
        self.d = d
        self.ambient = int(rows.shape[1])
        reduced, pivots = _rref_rows(rows.tolist(), self.ambient, d)
        self.pivots = tuple(pivots)
        self.basis = np.array(reduced, dtype=np.int64).reshape(len(reduced), self.ambient)
        self.basis.setflags(write=False)
        self._key = (d, self.ambient, tuple(map(tuple, reduced)))

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

    def contains(self, v) -> bool:
        w = asvec(v, self.d)
        for row, p in zip(self.basis, self.pivots):
            if w[p]:
                w = (w - w[p] * row) % self.d
        return not w.any()

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient, self.d)
        stacked = np.vstack([self.basis, other.basis])
        # coefficient vectors (u, v) with u A + v B = 0 give u A in A cap B
        coeff = nullspace(stacked.T, self.d)
        vecs = (coeff[:, : self.dim] @ self.basis) % self.d
        return Subspace(vecs, self.d, self.ambient)

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

    def to_json(self) -> dict:
        return {"d": self.d, "ambient": self.ambient, "basis": self.basis.tolist()}


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


def echelon_subspaces(gram: np.ndarray, d: int, k: int, admissible) -> tuple[Subspace, ...]:
    """All k-dim subspaces with an admissible, pairwise `gram`-orthogonal basis.

    admissible(vectors) returns a boolean mask over rows of vectors.  The
    rows of each subspace's canonical RREF basis must be admissible and
    pairwise orthogonal w.r.t. `gram` (a row need not be orthogonal to
    itself); the caller's property must hold on the whole span iff it holds
    on such a basis.  Each subspace is built once, as its RREF basis: rows
    are added in decreasing pivot order, each new row with its leading 1
    left of every chosen pivot and zeros at the chosen pivot columns.  The
    result is sorted by the canonical key.
    """
    ambient = gram.shape[0]
    vecs = all_vectors(ambient, d)
    lead = np.argmax(vecs != 0, axis=1)
    keep = vecs.any(axis=1) & (vecs[np.arange(len(vecs)), lead] == 1) & admissible(vecs)
    cand, lead = vecs[keep], lead[keep]
    orthogonal = (cand @ gram @ cand.T) % d == 0
    out = []

    def extend(chosen: list[int], alive: np.ndarray):
        need = k - len(chosen)
        if need == 0:
            out.append(Subspace(cand[chosen[::-1]], d, ambient))
            return
        left = lead[chosen[-1]] if chosen else ambient
        for i in np.flatnonzero(alive & (lead < left) & (lead >= need - 1)):
            extend(chosen + [i], alive & orthogonal[i] & (cand[:, lead[i]] == 0))

    extend([], np.ones(len(cand), dtype=bool))
    return tuple(sorted(out, key=lambda s: s._key))


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
    """Lexicographically least representatives of sup / sub cosets."""
    if not sup.contains_space(sub):
        raise ValueError("sub is not contained in sup")
    members = sup.vectors()
    order = np.lexsort(members.T[::-1])
    shifts = sub.vectors()
    seen: set[tuple] = set()
    reps = []
    for idx in order:
        v = members[idx]
        if tuple(v.tolist()) in seen:
            continue
        reps.append(v)
        for w in (v + shifts) % sup.d:
            seen.add(tuple(w.tolist()))
    return np.array(reps, dtype=np.int64)


def orbits(items, neighbours) -> list[set]:
    """Orbits of a group action on `items`, by closure under `neighbours`.

    neighbours(x) yields the images of x under a generating set.  Each orbit
    is grown from the first item, in the order of `items`, that no earlier
    orbit contains, so the orbits come out in the order of their first items.
    """
    seen: set = set()
    out = []
    for item in items:
        if item in seen:
            continue
        orbit = {item}
        frontier = [item]
        while frontier:
            for nb in neighbours(frontier.pop()):
                if nb not in orbit:
                    orbit.add(nb)
                    frontier.append(nb)
        seen |= orbit
        out.append(orbit)
    return out
