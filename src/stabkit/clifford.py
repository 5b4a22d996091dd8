"""Clifford gates, words, and their symplectic action on phase space.

Generators: the Fourier gate F (Hadamard for d = 2), the phase gate P,
controlled addition CADD, and Weyl operators.  Every Clifford unitary U
acts on Weyl operators by U W_x U^dag = phase(x) W_{Gamma x} for a
symplectic matrix Gamma over Z_d.

A word acts by one route, of which `apply_letter` is the word of one
letter: F contracts one qudit axis, and P, CADD and W are monomial,
gate|b> = phases[b] |targets[b]>.  P and CADD read cached tables, and the
W letters of a word take their pairs from one `phase_space.weyl_action`
call.  Each maximal run of monomial letters is composed on length-d^n
vectors and scatters the rows once, so no gate is embedded as a dense
matrix.  `random_clifford` draws the kinds, qudits, CADD offsets and W
points of its 40 n letters in four vectorized draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gf import all_vectors, flat_index, gram_symplectic, orbits
from .phase_space import (
    _ROW_BLOCK_BYTES,
    characteristic_function,
    check_dim,
    freeze,
    omega,
    phase_points,
    square_side,
    weyl_action,
)

__all__ = [
    "fourier_gate",
    "phase_gate",
    "apply_letter",
    "CliffordWord",
    "generator_letters",
    "random_clifford",
    "is_clifford",
    "conjugate_weyl_check",
    "enumerate_sp",
    "sp_orbit_count",
]


@lru_cache(maxsize=None)
def fourier_gate(d: int) -> np.ndarray:
    """F|j> = d^{-1/2} sum_k omega^{jk} |k>; the Hadamard for d = 2.

    Built once per d and read-only, as every F letter uses it.
    """
    j = np.arange(d)
    return freeze(omega(d) ** np.outer(j, j) / np.sqrt(d))


@lru_cache(maxsize=None)
def _phase_diagonal(d: int) -> np.ndarray:
    """The diagonal of the phase gate, built once per d and read-only."""
    a = np.arange(d)
    if d == 2:
        return freeze(np.array([1.0, 1j]))
    half = pow(2, -1, d)
    return freeze(omega(d) ** ((half * a * (a - 1)) % d))


def phase_gate(d: int) -> np.ndarray:
    """diag(1, i) for d = 2; diag(omega^{a(a-1)/2}) for odd d."""
    return np.diag(_phase_diagonal(d))


@lru_cache(maxsize=128)
def _cadd_pair(i: int, j: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """CADD on qudits (i, j) as (targets, phases): |b> -> |b with b_j <- b_i + b_j>, read-only."""
    b = np.arange(d**n)
    b_i, b_j = b // d ** (n - 1 - i) % d, b // d ** (n - 1 - j) % d
    targets = b + ((b_i + b_j) % d - b_j) * d ** (n - 1 - j)
    return freeze(targets), freeze(np.ones(d**n, dtype=complex))


@lru_cache(maxsize=128)
def _phase_pair(pos: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """P on qudit pos as (targets, phases): the identity and the diagonal, read-only."""
    phases = np.repeat(np.tile(_phase_diagonal(d), d**pos), d ** (n - 1 - pos))
    return freeze(np.arange(d**n)), freeze(phases)


def _apply_letters(letters, rows: np.ndarray, n: int, d: int) -> np.ndarray:
    """gate_k ... gate_1 . rows for letters (gate_1, ..., gate_k); rows has shape (d^n, m).

    F contracts the axis of qudit `pos` of rows viewed as (d^pos, d, m).
    P, CADD and W are monomial, gate|b> = phases[b] |targets[b]>: P and
    CADD read cached pairs, and the W letters take theirs from one
    `weyl_action` call on the stack of their points.  A maximal run of
    monomial letters is composed on length-d^n vectors, t <- t_L[t] and
    phi <- phi . phi_L[t], and then scatters the rows once:
    out[t[b]] = phi[b] rows[b].
    """
    points = [letter[1] for letter in letters if letter[0] == "W"]
    weyl = zip(*weyl_action(points, n, d)) if points else None
    run = None

    def scatter(rows, targets, phases):
        out = np.empty_like(rows)
        out[targets] = phases[:, None] * rows
        return out

    for kind, *args in letters:
        if kind == "F":
            if run is not None:
                rows, run = scatter(rows, *run), None
            rows = (fourier_gate(d) @ rows.reshape(d ** args[0], d, -1)).reshape(d**n, -1)
            continue
        if kind == "P":
            targets, phases = _phase_pair(args[0], n, d)
        elif kind == "CADD":
            targets, phases = _cadd_pair(*args, n, d)
        elif kind == "W":
            targets, phases = next(weyl)
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        if run is not None:
            targets, phases = targets[run[0]], run[1] * phases[run[0]]
        run = targets, phases
    return rows if run is None else scatter(rows, *run)


def apply_letter(letter, V: np.ndarray, n: int, d: int) -> np.ndarray:
    """gate . V for one letter (kind, *args), kind in F/P/CADD/W, without the gate.

    V has shape (d^n, ...).  The letter is a word of one letter for
    `_apply_letters`: F contracts one qudit axis, P, CADD and W scatter
    the rows.
    """
    rows = np.asarray(V, dtype=complex).reshape(d**n, -1)
    return _apply_letters((letter,), rows, n, d).reshape(np.shape(V))


@dataclass(frozen=True)
class CliffordWord:
    n: int
    d: int
    letters: tuple

    def matrix(self) -> np.ndarray:
        check_dim(self.d**self.n)
        return _apply_letters(self.letters, np.eye(self.d**self.n, dtype=complex), self.n, self.d)

    def to_json(self) -> dict:
        letters = []
        for kind, *args in self.letters:
            if kind == "W":
                letters.append({"gate": "W", "args": [list(map(int, args[0]))]})
            else:
                letters.append({"gate": kind, "args": list(map(int, args))})
        return {"n": self.n, "d": self.d, "letters": letters}

    @classmethod
    def from_json(cls, data: dict) -> "CliffordWord":
        letters = []
        for rec in data["letters"]:
            if rec["gate"] == "W":
                letters.append(("W", tuple(rec["args"][0])))
            else:
                letters.append((rec["gate"], *rec["args"]))
        return cls(data["n"], data["d"], tuple(letters))


def generator_letters(n: int) -> list:
    """The Clifford generators as letters: F and P on each qudit, then CADD on each ordered pair."""
    letters = [(kind, i) for i in range(n) for kind in ("F", "P")]
    return letters + [("CADD", i, j) for i in range(n) for j in range(n) if i != j]


def random_clifford(n: int, d: int, rng: np.random.Generator) -> tuple[CliffordWord, np.ndarray]:
    """Random word of 40 n generator letters; not uniform over the group.

    Each letter is F, P, W or (for n > 1) CADD with equal probability, on a
    uniform qudit i; CADD targets j = i + 1 + U(n - 1) mod n, and W a
    uniform point of Z_d^{2n}.  The four draws are made once for the word.
    """
    m = 40 * n
    kinds = rng.integers(4 if n > 1 else 3, size=m).tolist()
    positions = rng.integers(n, size=m).tolist()
    # at n = 1 there is no CADD, and the offsets (all 0) are unused
    offsets = rng.integers(max(n - 1, 1), size=m).tolist()
    points = rng.integers(0, d, size=(m, 2 * n)).tolist()
    letters = []
    for kind, i, off, x in zip(kinds, positions, offsets, points):
        name = ("F", "P", "W", "CADD")[kind]
        if name == "W":
            letters.append(("W", tuple(x)))
        elif name == "CADD":
            letters.append(("CADD", i, (i + 1 + off) % n))
        else:
            letters.append((name, i))
    word = CliffordWord(n, d, tuple(letters))
    return word, word.matrix()


# tolerance on the moduli and phases read off U W_x U^dag
_ATOL = 1e-9


def is_clifford(U: np.ndarray, n: int, d: int) -> bool:
    """Check U W_x U^dag is a phase times a Weyl operator for basis x."""
    try:
        conjugate_weyl_check(U, n, d)
    except ValueError:
        return False
    return True


def conjugate_weyl_check(U: np.ndarray, n: int, d: int):
    """Symplectic action of a Clifford unitary on Weyl operators.

    Returns (Gamma, phases) with U W_x U^dag = phases[i] W_{Gamma x} for
    every phase point x (i its flat index), Gamma symplectic over Z_d.
    Raises ValueError with the failing point if U is not Clifford.
    """
    pts = phase_points(n, d)
    U = np.asarray(U, dtype=complex)
    Uh = U.conj().T

    def conjugate(targets, phases):
        # U W_x U^dag, with W_x|b> = phases[b] |targets[b]>
        return (U[:, targets] * phases) @ Uh

    images = np.zeros((2 * n, 2 * n), dtype=np.int64)
    basis = weyl_action(np.eye(2 * n, dtype=np.int64), n, d)
    for k, (targets, phases) in enumerate(zip(*basis)):
        mods = np.abs(characteristic_function(conjugate(targets, phases), n, d)) * d ** (-n / 2)
        top = int(np.argmax(mods))
        if abs(mods[top] - 1.0) > _ATOL or np.delete(mods, top).max() > _ATOL:
            raise ValueError(f"not Clifford: no unique Weyl image for basis point {k}")
        images[:, k] = pts[top]
    Gamma = images % d

    J = gram_symplectic(2 * n, d)
    if ((Gamma.T @ J @ Gamma - J) % d).any():
        raise ValueError("conjugation action is not symplectic")

    # linearity: each point maps to Gamma x with a unit phase, read off as
    # tr[W_{Gamma x}^dag U W_x U^dag] / d^n on the support of W_{Gamma x}.
    # Only the entries (targets[b], b) of U W_x U^dag are read: entry b is
    # the row U[targets[b], sources] * phases dotted with conj(U[b]).  The
    # points are taken in blocks, each within _ROW_BLOCK_BYTES: per point
    # the d^n x d^n complex rows read and the Weyl actions' int64 digit
    # tables (n + 6 words per basis state covers them and their outputs)
    dim = d**n
    phases = np.zeros(len(pts), dtype=complex)
    step = max(1, _ROW_BLOCK_BYTES // (16 * dim * dim + 8 * (n + 6) * dim))
    for lo in range(0, len(pts), step):
        block = pts[lo:lo + step]
        sources, source_phases = weyl_action(block, n, d)
        targets, target_phases = weyl_action(block @ Gamma.T, n, d)
        rows = U[targets[:, :, None], sources[:, None, :]]  # (points, b, c)
        rows *= source_phases[:, None, :]
        rows *= Uh.T
        vals = (target_phases.conj() * rows.sum(axis=2)).sum(axis=1) / dim
        bad = np.abs(np.abs(vals) - 1.0) > _ATOL
        if bad.any():
            raise ValueError(f"conjugation not linear at point {block[np.argmax(bad)]}")
        phases[lo:lo + len(block)] = vals
    return Gamma, phases


def enumerate_sp(d: int) -> tuple[np.ndarray, ...]:
    """All of Sp(2, d) = SL(2, d), size d(d^2 - 1)."""
    out = []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                for e in range(d):
                    if (a * e - b * c) % d == 1 % d:
                        out.append(np.array([[a, b], [c, e]], dtype=np.int64))
    assert len(out) == d * (d * d - 1)
    return tuple(out)


def sp_orbit_count(d: int, t: int) -> int:
    """Orbits of SL(2, d) acting diagonally on (Z_d^2)^{t-1}."""
    k = t - 1
    npoints = d ** (2 * k)
    check_dim(square_side(npoints * 2 * k))  # the point table
    # the two elementary shears generate SL(2, d)
    gens = np.array([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], dtype=np.int64)
    pts = all_vectors(2 * k, d).reshape(npoints, k, 2)
    images = [flat_index((pts @ g.T % d).reshape(npoints, -1), d) for g in gens]
    return len(orbits(images))
