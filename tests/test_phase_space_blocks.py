"""The digit-block DFT and the row blocks of c_psi against the np.fft routes.

`oracles` keeps the earlier route: the outer product |psi><psi|, one gather
through the d^{2n} `sum_index` table and `np.fft.fftn` over length-d axes.
The library builds each row of c_psi from a gather of psi, transforms it
with `_digit_dft`, and hands rows out in blocks of bounded size.
"""

from __future__ import annotations

import pathlib
import tracemalloc

import numpy as np
import pytest

from stabkit import gf, phase_space, protocols
from stabkit.clifford import random_clifford
from stabkit.phase_space import (
    _digit_dft,
    _pure_char,
    _pure_char_rows,
    char_distribution,
    characteristic_function,
    symplectic_fourier,
    wigner_state,
)
from stabkit.protocols import (
    bell_difference_distribution,
    clifford_test,
    mana,
    max_mixed_state_check,
    qubit_accept_probability,
    qudit_accept_probability,
    robust_hudson_check,
    simulate_algorithm1,
    sum_negativity,
    three_copy_accept_probability,
    uncertainty_points,
    wigner_norm,
)

import oracles

SIZES = [(n, 2) for n in range(1, 9)] + [(2, 3), (3, 3), (2, 5), (2, 7)]


def _haar(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _fftn(a, k, d):
    """np.fft.fftn over the k length-d digit axes of the last axis of a."""
    lead = a.shape[:-1]
    return np.fft.fftn(a.reshape(lead + (d,) * k), axes=range(len(lead), len(lead) + k)).reshape(a.shape)


@pytest.mark.parametrize(
    "d,k",
    [(2, k) for k in range(13)] + [(3, k) for k in range(1, 7)] + [(5, k) for k in range(1, 5)]
    + [(7, k) for k in range(1, 4)],
)
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_digit_dft_matches_fftn(d, k, lead):
    rng = np.random.default_rng(100 * d + k)
    a = rng.normal(size=lead + (d**k,)) + 1j * rng.normal(size=lead + (d**k,))
    got = _digit_dft(a, k, d)
    assert got.shape == a.shape
    assert np.abs(got - _fftn(a, k, d)).max() < 1e-12


def test_digit_dft_leaves_its_input_alone():
    a = np.arange(16.0).reshape(2, 8)
    before = a.copy()
    _digit_dft(a, 3, 2)
    assert np.array_equal(a, before)


@pytest.mark.parametrize("n,d", SIZES)
def test_pure_state_routes_match_fft_oracle(n, d):
    psi = _haar(d**n, seed=10 * n + d)
    c = oracles.pure_characteristic_function(psi, n, d)
    assert np.abs(_pure_char(psi, n, d) - c).max() < 1e-12
    assert np.abs(char_distribution(psi, n, d) - np.abs(c) ** 2).max() < 1e-12
    assert np.abs(wigner_state(psi, n, d) - oracles.wigner_state(psi, n, d)).max() < 1e-12
    s = 3 if d == 2 else 2
    assert abs(qudit_accept_probability(psi, s, d) - oracles.accept_probability(psi, s, d)) < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (5, 2), (2, 3), (1, 5), (2, 5)])
def test_characteristic_function_matches_fft_oracle(n, d):
    rng = np.random.default_rng(n + d)
    B = rng.normal(size=(d**n, d**n)) + 1j * rng.normal(size=(d**n, d**n))
    want = oracles.characteristic_function(B, n, d)
    assert np.abs(characteristic_function(B, n, d) - want).max() < 1e-12


@pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (2, 3), (2, 5)])
def test_symplectic_fourier_matches_fft_oracle(n, d):
    rng = np.random.default_rng(d)
    for shape in [(d ** (2 * n),), (d ** (2 * n), 3), (d ** (2 * n), 2, 2)]:
        f = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = oracles.symplectic_fourier_fft(f, n, d)
        assert np.abs(symplectic_fourier(f, n, d) - want).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_bell_and_monte_carlo_match_fft_oracle(n):
    _, U = random_clifford(n, 2, np.random.default_rng(n))
    for psi in (U[:, 0], _haar(2**n, seed=n)):
        want = oracles.bell_convolution(oracles.char_distribution(psi, n, 2), n)
        assert np.abs(bell_difference_distribution(psi, check=n <= 4) - want).max() < 1e-12
        report = simulate_algorithm1(psi, 50, n)
        assert abs(report.details["p_analytic"] - oracles.accept_probability(psi, 3, 2)) < 1e-12


@pytest.mark.parametrize(
    "n,d,rows", [(4, 2, 3), (5, 2, 7), (2, 3, 2), (2, 5, 4), (3, 2, 1), (3, 3, 5)]
)
def test_row_blocks_that_do_not_divide_d_to_the_n(monkeypatch, n, d, rows):
    # the budget of `rows` rows: d^n is a prime power and `rows` is not a
    # power of d, so the last block is short (rows = 1 is one row a block)
    monkeypatch.setattr(phase_space, "_ROW_BLOCK_BYTES", rows * 16 * d**n)
    psi = _haar(d**n, seed=rows)
    sizes = [len(block) for _, block in _pure_char_rows(psi, n, d)]
    assert sizes == [rows] * (d**n // rows) + ([d**n % rows] if d**n % rows else [])
    c = oracles.pure_characteristic_function(psi, n, d)
    assert np.abs(_pure_char(psi, n, d) - c).max() < 1e-12
    assert np.abs(char_distribution(psi, n, d) - np.abs(c) ** 2).max() < 1e-12
    assert np.abs(wigner_state(psi, n, d) - oracles.wigner_state(psi, n, d)).max() < 1e-12
    B = np.random.default_rng(rows).normal(size=(d**n, d**n))
    assert np.abs(characteristic_function(B, n, d) - oracles.characteristic_function(B, n, d)).max() < 1e-12
    s = 3 if d == 2 else 2
    assert abs(qudit_accept_probability(psi, s, d) - oracles.accept_probability(psi, s, d)) < 1e-12


def test_budget_below_one_row_gives_one_row_a_block(monkeypatch):
    monkeypatch.setattr(phase_space, "_ROW_BLOCK_BYTES", 1)
    psi = _haar(8, seed=0)
    assert [len(block) for _, block in _pure_char_rows(psi, 3, 2)] == [1] * 8
    assert abs(qubit_accept_probability(psi) - oracles.accept_probability(psi, 3, 2)) < 1e-12


@pytest.mark.parametrize(
    "n,d,rows",
    # one block, its tables cached: (8, 2) is the largest qubit size that fits
    [(1, 2, None), (3, 2, None), (6, 2, None), (8, 2, None), (2, 3, None), (5, 3, None),
     (2, 5, None), (3, 5, None), (2, 7, None)]
    # several blocks, tables built on every call: by size, then by a smaller budget
    + [(9, 2, None), (6, 3, None), (4, 5, None), (3, 2, 3), (2, 3, 4), (2, 5, 1)],
)
def test_row_tables_match_the_streaming_route_bit_for_bit(monkeypatch, n, d, rows):
    if rows is not None:
        monkeypatch.setattr(phase_space, "_ROW_BLOCK_BYTES", rows * 16 * d**n)
    one_block = 16 * d ** (2 * n) <= phase_space._ROW_BLOCK_BYTES
    psi = _haar(d**n, seed=100 + n + d)
    want = oracles.pure_char_streaming(psi, n, d)
    for _ in range(2):  # the second call reads the cached tables
        assert np.array_equal(_pure_char(psi, n, d), want)
    if d**n <= 125:
        B = np.random.default_rng(n * d).normal(size=(d**n, d**n)) + 1j
        want = oracles.characteristic_function_streaming(B, n, d)
        assert np.array_equal(characteristic_function(B, n, d), want)
    assert phase_space._one_block_tables.cache_info().maxsize <= 8
    if one_block:
        shift, phase = phase_space._one_block_tables(n, d)
        assert shift.shape == phase.shape == (d**n, d**n)
        assert not shift.flags.writeable and not phase.flags.writeable


def test_pure_state_protocols_never_read_sum_index_or_outer(monkeypatch):
    _, U = random_clifford(2, 2, np.random.default_rng(0))

    def refuse(*args, **kwargs):
        raise AssertionError("a d^{2n} table is built on a pure-state path")

    # every stabkit module's name for sum_index, and the density matrix
    for module in (gf, phase_space, protocols):
        monkeypatch.setattr(module, "sum_index", refuse, raising=False)
    monkeypatch.setattr(np, "outer", refuse)
    qubit = _haar(8, seed=1)
    char_distribution(qubit, 3, 2)
    wigner_state(qubit, 3, 2)
    qubit_accept_probability(qubit)
    bell_difference_distribution(qubit, check=True)
    simulate_algorithm1(qubit, 20, 1)
    max_mixed_state_check(qubit, 2)
    clifford_test(U)
    qutrit = _haar(9, seed=2)
    qudit_accept_probability(qutrit, 2, 3)
    sum_negativity(qutrit, 3)
    wigner_norm(qutrit, 3)
    mana(qutrit, 3)
    robust_hudson_check(qutrit, 3)
    uncertainty_points(qutrit, [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], 2, 3)
    three_copy_accept_probability(_haar(25, seed=3), 5)


def test_library_does_not_use_np_fft():
    src = pathlib.Path(phase_space.__file__).parent
    users = [f.name for f in sorted(src.glob("*.py")) if "np.fft" in f.read_text()]
    assert users == []


def test_cap_guards_the_stream_by_its_state(monkeypatch):
    """The streamed six-copy test holds the state and its row blocks only,
    so a cap of 64 admits it at n = 8 (256 entries, a square of side 16);
    the stacked c_psi is a 256 x 256 table and is refused."""
    psi = _haar(2**8, seed=8)
    want = oracles.accept_probability(psi, 3, 2)
    monkeypatch.setenv("STABKIT_DIM_CAP", "64")
    assert abs(qubit_accept_probability(psi) - want) < 1e-12
    with pytest.raises(phase_space.ResourceCapError, match="256"):
        char_distribution(psi, 8, 2)
    monkeypatch.setenv("STABKIT_DIM_CAP", "15")
    with pytest.raises(phase_space.ResourceCapError, match="16"):
        qubit_accept_probability(psi)


def test_six_copy_test_at_ten_qubits_streams_and_matches_oracle():
    n = 10
    psi = _haar(2**n, seed=n)
    tracemalloc.start()
    try:
        p = qubit_accept_probability(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one full complex c_psi would take 2^{2n} * 16 bytes
    assert peak < 2 ** (2 * n) * 16
    assert abs(p - oracles.accept_probability(psi, 3, 2)) < 1e-12
