"""Clifford gates, words, and their symplectic action on phase space.

Generators: the Fourier gate F (Hadamard for d = 2), the phase gate P,
controlled addition CADD, and Weyl operators.  Every Clifford unitary U
acts on Weyl operators by U W_x U^dag = phase(x) W_{Gamma x} for a
symplectic matrix Gamma over Z_d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import all_vectors, flat_index, gram_symplectic, orbits
from .phase_space import (
    capped_cache,
    characteristic_function,
    check_dim,
    freeze,
    omega,
    phase_points,
    weyl,
)

__all__ = [
    "fourier_gate",
    "phase_gate",
    "cadd_gate",
    "embed_single",
    "embed_pair",
    "gate_matrix",
    "CliffordWord",
    "clifford_generators",
    "random_clifford",
    "is_clifford",
    "conjugate_weyl_check",
    "enumerate_sp",
    "sp_orbit_count",
]


def fourier_gate(d: int) -> np.ndarray:
    """F|j> = d^{-1/2} sum_k omega^{jk} |k>; the Hadamard for d = 2."""
    j = np.arange(d)
    return omega(d) ** np.outer(j, j) / np.sqrt(d)


def phase_gate(d: int) -> np.ndarray:
    """diag(1, i) for d = 2; diag(omega^{a(a-1)/2}) for odd d."""
    a = np.arange(d)
    if d == 2:
        return np.diag([1.0, 1j])
    half = pow(2, -1, d)
    return np.diag(omega(d) ** ((half * a * (a - 1)) % d))


def cadd_gate(d: int) -> np.ndarray:
    """CADD|a, b> = |a, a + b mod d> on two qudits (CNOT for d = 2)."""
    g = np.zeros((d * d, d * d))
    for a in range(d):
        for b in range(d):
            g[a * d + (a + b) % d, a * d + b] = 1.0
    return g


def embed_single(g: np.ndarray, pos: int, n: int, d: int) -> np.ndarray:
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
        return weyl(np.asarray(args[0], dtype=np.int64), n, d)
    raise ValueError(f"unknown gate kind {kind!r}")


@dataclass(frozen=True)
class CliffordWord:
    n: int
    d: int
    letters: tuple

    def matrix(self) -> np.ndarray:
        check_dim(self.d**self.n)
        U = np.eye(self.d**self.n, dtype=complex)
        for letter in self.letters:
            U = gate_matrix(letter, self.n, self.d) @ U
        return U

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


@capped_cache(lambda n, d: d**n)
def clifford_generators(n: int, d: int) -> tuple[np.ndarray, ...]:
    """Fourier and phase gates on each qudit, CADD on each ordered pair."""
    gens = []
    for i in range(n):
        gens.append(embed_single(fourier_gate(d), i, n, d))
        gens.append(embed_single(phase_gate(d), i, n, d))
    for i in range(n):
        for j in range(n):
            if i != j:
                gens.append(embed_pair(cadd_gate(d), i, j, n, d))
    return tuple(freeze(g) for g in gens)


def _random_letter(n: int, d: int, rng: np.random.Generator):
    kinds = ["F", "P", "W"] + (["CADD"] if n > 1 else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind in ("F", "P"):
        return (kind, int(rng.integers(n)))
    if kind == "CADD":
        i = int(rng.integers(n))
        j = int((i + 1 + rng.integers(n - 1)) % n)
        return ("CADD", i, j)
    return ("W", tuple(int(v) for v in rng.integers(0, d, size=2 * n)))


def random_clifford(
    n: int, d: int, rng: np.random.Generator, length: int | None = None
) -> tuple[CliffordWord, np.ndarray]:
    """Random word of generator letters; not uniform over the group."""
    if length is None:
        length = 40 * n
    word = CliffordWord(n, d, tuple(_random_letter(n, d, rng) for _ in range(length)))
    return word, word.matrix()


def is_clifford(U: np.ndarray, n: int, d: int, atol: float = 1e-9) -> bool:
    """Check U W_x U^dag is a phase times a Weyl operator for basis x."""
    try:
        conjugate_weyl_check(U, n, d, atol=atol)
    except ValueError:
        return False
    return True


def conjugate_weyl_check(U: np.ndarray, n: int, d: int, atol: float = 1e-8):
    """Symplectic action of a Clifford unitary on Weyl operators.

    Returns (Gamma, phases) with U W_x U^dag = phases[i] W_{Gamma x} for
    every phase point x (i its flat index), Gamma symplectic over Z_d.
    Raises ValueError with the failing point if U is not Clifford.
    """
    pts = phase_points(n, d)

    images = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for k in range(2 * n):
        x = np.zeros(2 * n, dtype=np.int64)
        x[k] = 1
        conj = U @ weyl(x, n, d) @ U.conj().T
        mods = np.abs(characteristic_function(conj, n, d)) * d ** (-n / 2)
        top = int(np.argmax(mods))
        if abs(mods[top] - 1.0) > atol or np.delete(mods, top).max() > atol:
            raise ValueError(f"not Clifford: no unique Weyl image for basis point {k}")
        images[:, k] = pts[top]
    Gamma = images % d

    J = gram_symplectic(2 * n, d)
    if ((Gamma.T @ J @ Gamma - J) % d).any():
        raise ValueError("conjugation action is not symplectic")

    # linearity: each point maps to Gamma x with a unit phase
    phases = np.zeros(len(pts), dtype=complex)
    for i, x in enumerate(pts):
        target = weyl((Gamma @ x) % d, n, d)
        val = np.trace(target.conj().T @ (U @ weyl(x, n, d) @ U.conj().T)) / d**n
        if abs(abs(val) - 1.0) > atol:
            raise ValueError(f"conjugation not linear at point {x}")
        phases[i] = val
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


def sp_orbit_count(d: int, t: int, cap: int = 10**7) -> int:
    """Orbits of SL(2, d) acting diagonally on (Z_d^2)^{t-1}."""
    k = t - 1
    npoints = d ** (2 * k)
    if npoints > cap:
        raise ValueError("orbit enumeration exceeds cap")
    group_T = np.array(enumerate_sp(d)).transpose(0, 2, 1)
    pts = all_vectors(2 * k, d).reshape(-1, k, 2)

    def neighbours(j):
        images = (pts[j] @ group_T) % d  # (|G|, k, 2)
        return flat_index(images.reshape(len(group_T), -1), d).tolist()

    return len(orbits(range(npoints), neighbours))
