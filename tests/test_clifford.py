"""Clifford gates, words, and symplectic actions."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from stabkit.clifford import (
    CliffordWord,
    apply_letter,
    conjugate_weyl_check,
    enumerate_sp,
    fourier_gate,
    generator_letters,
    is_clifford,
    phase_gate,
    random_clifford,
    sp_orbit_count,
)
from stabkit.phase_space import ResourceCapError

from oracles import cadd_gate


def test_gate_conventions():
    F2 = fourier_gate(2)
    assert np.abs(F2 - np.array([[1, 1], [1, -1]]) / math.sqrt(2)).max() < 1e-12
    P2 = phase_gate(2)
    assert np.abs(P2 - np.diag([1, 1j])).max() < 1e-12
    P3 = phase_gate(3)
    w = np.exp(2j * np.pi / 3)
    half = pow(2, -1, 3)
    want = np.diag([w ** (half * a * (a - 1) % 3) for a in range(3)])
    assert np.abs(P3 - want).max() < 1e-12
    C = cadd_gate(3)
    # CADD|a, b> = |a, a + b>
    v = np.zeros(9)
    v[3 * 1 + 2] = 1  # |1, 2>
    out = C @ v
    assert abs(out[3 * 1 + 0] - 1) < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2)])
def test_generators_are_clifford(n, d):
    for letter in generator_letters(n):
        assert is_clifford(apply_letter(letter, np.eye(d**n), n, d), n, d)


@pytest.mark.parametrize("n,d", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_random_clifford_word(n, d):
    word, U = random_clifford(n, d, np.random.default_rng(7))
    assert np.abs(word.matrix() - U).max() < 1e-9
    gamma, phases = conjugate_weyl_check(U, n, d)
    J = np.zeros((2 * n, 2 * n), dtype=np.int64)
    J[:n, n:] = np.eye(n, dtype=np.int64)
    J[n:, :n] = (-np.eye(n, dtype=np.int64)) % d
    assert not ((gamma.T @ J @ gamma - J) % d).any()
    assert np.abs(np.abs(phases) - 1).max() < 1e-9


def test_conjugate_weyl_check_memory_is_bounded(monkeypatch):
    """The linearity pass takes the Weyl actions of blocks of points within
    a 1 MB budget: at n = 6 the traced peak stays near 2 MB (31 MB when all
    4096 points were taken at once), and the result equals the one from
    blocks of a single point."""
    import tracemalloc

    from stabkit import clifford

    _, U = random_clifford(6, 2, np.random.default_rng(6))
    tracemalloc.start()
    try:
        gamma, phases = conjugate_weyl_check(U, 6, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    monkeypatch.setattr(clifford, "_ROW_BLOCK_BYTES", 1)
    one_gamma, one_phases = conjugate_weyl_check(U, 6, 2)
    assert np.array_equal(gamma, one_gamma) and np.array_equal(phases, one_phases)


@pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 2), (6, 2)])
def test_random_word_draw_contract(n, d):
    kinds = {"F", "P", "W"} | ({"CADD"} if n > 1 else set())
    for seed in range(5):
        word, _ = random_clifford(n, d, np.random.default_rng(seed))
        assert (word.n, word.d, len(word.letters)) == (n, d, 40 * n)
        for kind, *args in word.letters:
            assert kind in kinds
            if kind == "W":
                (x,) = args
                assert len(x) == 2 * n and all(type(v) is int and 0 <= v < d for v in x)
            else:
                assert all(type(v) is int and 0 <= v < n for v in args)
                assert len(args) == (2 if kind == "CADD" else 1)
                assert kind != "CADD" or args[0] != args[1]
        if n == 3:
            assert {letter[0] for letter in word.letters} == kinds


def test_random_word_letter_frequencies():
    """Kinds, qudits and CADD offsets j - i = 1 + U(n - 1) mod n are uniform.

    50 seeded words at n = 3 give 6000 letters, about 1500 of each kind
    (standard deviation about 34).
    """
    words = [random_clifford(3, 2, np.random.default_rng(seed))[0] for seed in range(50)]
    letters = [letter for word in words for letter in word.letters]
    kinds = [letter[0] for letter in letters]
    for kind in ("F", "P", "CADD", "W"):
        assert abs(kinds.count(kind) - 1500) < 150, kind
    positions = [letter[1] for letter in letters if letter[0] != "W"]
    for i in range(3):
        assert abs(positions.count(i) - len(positions) / 3) < 150, i
    offsets = [(j - i) % 3 for kind, *ij in letters if kind == "CADD" for i, j in [ij]]
    assert abs(offsets.count(1) - len(offsets) / 2) < 150


def test_word_matrix_is_capped(monkeypatch):
    word, _ = random_clifford(3, 2, np.random.default_rng(0))
    monkeypatch.setenv("STABKIT_DIM_CAP", "7")
    with pytest.raises(ResourceCapError, match="exceeds cap 7"):
        word.matrix()
    with pytest.raises(ResourceCapError, match="exceeds cap 7"):
        random_clifford(3, 2, np.random.default_rng(0))
    monkeypatch.setenv("STABKIT_DIM_CAP", "8")
    assert word.matrix().shape == (8, 8)


def test_clifford_word_json_round_trip():
    word, _ = random_clifford(2, 3, np.random.default_rng(1))
    blob = json.dumps(word.to_json())
    back = CliffordWord.from_json(json.loads(blob))
    assert back == word
    assert np.abs(back.matrix() - word.matrix()).max() < 1e-12


def test_non_clifford_rejected():
    T = np.diag([1.0, np.exp(1j * np.pi / 4)])
    assert not is_clifford(T, 1, 2)
    with pytest.raises(ValueError):
        conjugate_weyl_check(T, 1, 2)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_enumerate_sp_order(d):
    group = enumerate_sp(d)
    assert len(group) == d * (d * d - 1)


@pytest.mark.parametrize(
    "d,t,count", [(2, 2, 2), (3, 2, 2), (2, 3, 5), (3, 3, 7), (2, 1, 1), (3, 1, 1), (5, 1, 1)]
)
def test_sp_orbit_counts(d, t, count):
    assert sp_orbit_count(d, t) == count


def test_sp_orbit_count_point_table_is_capped(monkeypatch):
    # (3, 3): 81 points of (Z_3^2)^2, a 324-entry table of side 18
    monkeypatch.setenv("STABKIT_DIM_CAP", "17")
    with pytest.raises(ResourceCapError, match="exceeds cap 17"):
        sp_orbit_count(3, 3)
    monkeypatch.setenv("STABKIT_DIM_CAP", "18")
    assert sp_orbit_count(3, 3) == 7
