"""The R(T) support table and its derived routes against the earlier routes.

The oracles below are the earlier implementations: R(T) built per T as a
scipy sparse matrix from an (|T|^n, 2t, n) digit tensor, moment operators
and minimal projectors summed one sparse R(T) at a time, the Gram matrix
from one `Subspace.intersect` per pair, and expectations as R(T) @ v.
`oracles.R_sum` and `oracles.R_gram` are the sparse routes the library
took from the support table before it used numpy alone: a COO scatter
and a sparse incidence product.  `oracles.R_support_product` builds the
support table itself from the element tensor, one batched integer
product per block, where the library doubles over the basis rows.  The
library derives all of these from one integer support table, and its
dense bincount and shared-point product must equal the sparse routes
exactly.
"""

from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stabkit import commutant
from stabkit.commutant import (
    R_gram,
    R_matrix,
    R_sum,
    R_support,
    expectation_R,
    orthogonal_stochastic_group,
    sigma_stack,
    stochastic_lagrangians,
    subspace_from_matrix,
)
from stabkit.gf import all_vectors, flat_index
from stabkit.moments import (
    haar_moment_coefficients,
    minimal_projector,
    moment_operator,
    orbit_moment_vector,
    stab_moment_coefficients,
    stab_moment_operator,
)
from stabkit.phase_space import ResourceCapError, kron_power_vec

import oracles


def _R_oracle(T, n):
    """R(T) from the digit tensor digits[k, i, j] = coordinate i of the
    element chosen for qudit j, copy-major, as a sparse matrix."""
    t, d = T.ambient // 2, T.d
    elems = T.vectors()
    digits = elems[all_vectors(n, len(elems))].transpose(0, 2, 1)
    rows = flat_index(digits[:, :t].reshape(-1, t * n), d)
    cols = flat_index(digits[:, t:].reshape(-1, t * n), d)
    dim = d ** (t * n)
    mat = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim), dtype=float).tocsr()
    return rows, cols, mat


def _sum_oracle(Ts, weights, n):
    acc = None
    for g, T in zip(weights, Ts):
        if g == 0.0:
            continue
        term = g * _R_oracle(T, n)[2]
        acc = term if acc is None else acc + term
    return acc.toarray()


def _gram_oracle(Ts, n):
    d = Ts[0].d
    m = len(Ts)
    G = np.empty((m, m), dtype=float)
    for i in range(m):
        for j in range(i, m):
            G[i, j] = G[j, i] = float(d) ** (n * Ts[i].intersect(Ts[j]).dim)
    return G


def _expectation_oracle(T, psi, n):
    t = T.ambient // 2
    v = kron_power_vec(np.asarray(psi, dtype=complex), t)
    return complex(v.conj() @ (_R_oracle(T, n)[2] @ v))


def _haar_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize(
    "t,d,n", [(3, 3, 1), (3, 3, 2), (4, 2, 1), (4, 2, 3), (4, 3, 3), (4, 5, 1), (3, 7, 1)]
)
def test_gram_equals_intersection_loop(t, d, n):
    sigma = stochastic_lagrangians(t, d)
    G = R_gram(sigma, n)
    want = _gram_oracle(sigma, n)
    assert G.dtype == want.dtype and G.shape == want.shape
    assert np.array_equal(G, want)
    assert np.array_equal(G, oracles.R_gram(sigma, n))
    assert np.array_equal(R_gram(sigma_stack(t, d), n, d), want)


@pytest.mark.parametrize("n", [1, 5])
def test_gram_equals_sparse_product_at_sigma_6_2(n):
    # the largest Sigma the float32 product reaches here: m = 4590, |T| = 64
    sigma = stochastic_lagrangians(6, 2)
    assert np.array_equal(R_gram(sigma, n), oracles.R_gram(sigma, n))


@pytest.mark.parametrize(
    "t,n,d", [(2, 1, 2), (3, 1, 3), (4, 1, 2), (4, 2, 2), (6, 1, 2), (2, 2, 3), (3, 1, 5)]
)
def test_moment_operators_match_per_T_sum(t, n, d):
    sigma = stochastic_lagrangians(t, d)
    for gamma in (stab_moment_coefficients(t, n, d), haar_moment_coefficients(t, n, d)):
        got = moment_operator(gamma, t, n, d)
        assert np.abs(got - _sum_oracle(sigma, gamma, n)).max() <= 1e-15
        assert np.array_equal(got, oracles.R_sum(sigma, gamma, n).toarray())
    Ts = [subspace_from_matrix(O, d) for O in orthogonal_stochastic_group(t, d)]
    want = _sum_oracle(Ts, np.ones(len(Ts)), n) / len(Ts)
    got = minimal_projector(t, n, d)
    assert np.abs(got - want).max() <= 1e-15
    assert np.array_equal(got, oracles.R_sum(Ts, np.ones(len(Ts)), n).toarray() / len(Ts))


@pytest.mark.parametrize("t,n,d", [(4, 3, 2), (3, 2, 3), (4, 2, 2), (3, 1, 5), (2, 1, 89)])
def test_gathered_expectations_match_matvec(t, n, d):
    sigma = stochastic_lagrangians(t, d)
    rng = np.random.default_rng([t, n, d])
    for _ in range(3):
        psi = _haar_state(rng, d**n)
        want = np.array([_expectation_oracle(T, psi, n) for T in sigma])
        assert np.abs(orbit_moment_vector(psi, t, n, d) - want.conj()).max() <= 1e-12
        for T, w in zip(sigma[:5], want):
            assert abs(expectation_R(T, psi, n) - w) <= 1e-12


@st.composite
def sigma_elements(draw):
    t, d = draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5), (3, 5)]))
    n = draw(st.integers(1, 3))
    assume(d ** (t * n) <= 4096)
    sigma = stochastic_lagrangians(t, d)
    return sigma[draw(st.integers(0, len(sigma) - 1))], n


@given(sigma_elements())
@settings(max_examples=60, deadline=None)
def test_support_matches_digit_tensor(Tn):
    T, n = Tn
    rows, cols = R_support([T], n)
    want_rows, want_cols, want = _R_oracle(T, n)
    assert rows.shape == cols.shape == (1, len(want_rows))
    assert np.array_equal(rows[0], want_rows) and np.array_equal(cols[0], want_cols)
    got = R_matrix(T, n)
    assert isinstance(got, np.ndarray) and np.array_equal(got, want.toarray())
    assert np.array_equal(got, oracles.R_sum([T], [1.0], n).toarray())
    nz_rows, nz_cols = want.nonzero()
    assert set(zip(rows[0].tolist(), cols[0].tolist())) == set(zip(nz_rows.tolist(), nz_cols.tolist()))


def test_support_blocks_agree_with_single_T():
    sigma = stochastic_lagrangians(6, 2)
    rows, cols = R_support(sigma, 1)
    for i in (0, 255, 256, 257, len(sigma) - 1):
        r, c = R_support([sigma[i]], 1)
        assert np.array_equal(rows[i], r[0]) and np.array_equal(cols[i], c[0])


def _support_digest(*args):
    """sha256 of both R_support tables, so that only one pair is held at a time."""
    rows, cols = R_support(*args)
    return hashlib.sha256(rows.tobytes() + cols.tobytes()).hexdigest(), rows.shape


@pytest.mark.parametrize("t,d,n", [(6, 2, 1), (6, 2, 2), (4, 3, 1)])
def test_support_of_the_stack_matches_the_subspaces(t, d, n):
    stack = sigma_stack(t, d)
    assert _support_digest(stack, n, d) == _support_digest(stochastic_lagrangians(t, d), n)


# at most this many T's per comparison, so that the 287 MB tables of
# Sigma_{6,6}(2) at n = 2 are held a quarter at a time, three pairs at once
_COMPARE_CHUNK = 1200


@pytest.mark.parametrize("block", [256, 7])
@pytest.mark.parametrize(
    "t,d,n",
    [(6, 2, 1), (6, 2, 2), (4, 2, 3), (4, 3, 1), (4, 3, 2), (4, 5, 1), (5, 3, 1), (3, 7, 1), (2, 89, 1)],
)
def test_support_doubling_matches_product_route(monkeypatch, t, d, n, block):
    """Both tables, from the stack and from the Subspace list, bitwise equal
    to the element-tensor route, also with blocks of 7 T's that end
    inside a chunk."""
    monkeypatch.setattr(commutant, "_SUPPORT_BLOCK", block)
    stack, sigma = sigma_stack(t, d), stochastic_lagrangians(t, d)
    for lo in range(0, len(stack), _COMPARE_CHUNK):
        want = oracles.R_support_product(stack[lo:lo + _COMPARE_CHUNK], n, d)
        for got in (R_support(stack[lo:lo + _COMPARE_CHUNK], n, d),
                    R_support(sigma[lo:lo + _COMPARE_CHUNK], n)):
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.int64
                assert np.array_equal(g, w)


def test_cap_guards_gathers_and_scatters(monkeypatch):
    stochastic_lagrangians(4, 2)
    monkeypatch.setenv("STABKIT_DIM_CAP", "64")
    psi = _haar_state(np.random.default_rng(0), 8)
    with pytest.raises(ResourceCapError):
        orbit_moment_vector(psi, 4, 3, 2)
    with pytest.raises(ResourceCapError):
        stab_moment_operator(4, 2, 2)


def test_cap_guards_gram_output_incidence_and_sum_index(monkeypatch):
    sigma_2, sigma_3 = stochastic_lagrangians(4, 2), stochastic_lagrangians(4, 3)
    # the 80 x 80 Gram output of Sigma_{4,4}(3)
    monkeypatch.setenv("STABKIT_DIM_CAP", "64")
    with pytest.raises(ResourceCapError):
        R_gram(sigma_3, 1)
    # 80 <= 100 and d^t = 81 <= 100, but the 80 x 783 incidence is a square of side 251
    monkeypatch.setenv("STABKIT_DIM_CAP", "100")
    with pytest.raises(ResourceCapError):
        R_gram(sigma_3, 1)
    # d^{tn} = 16 <= 20, but the 30 x 16 flat index is a square of side 22
    monkeypatch.setenv("STABKIT_DIM_CAP", "20")
    with pytest.raises(ResourceCapError):
        R_sum(sigma_2, np.ones(len(sigma_2)), 1)
    # its two 30 x 16 support tables, rows and cols, are a square of side 31
    monkeypatch.setenv("STABKIT_DIM_CAP", "30")
    with pytest.raises(ResourceCapError):
        R_sum(sigma_2, np.ones(len(sigma_2)), 1)
    monkeypatch.setenv("STABKIT_DIM_CAP", "251")
    assert np.array_equal(R_gram(sigma_3, 1), oracles.R_gram(sigma_3, 1))
    monkeypatch.setenv("STABKIT_DIM_CAP", "31")
    want = oracles.R_sum(sigma_2, np.ones(30), 1).toarray()
    assert np.array_equal(R_sum(sigma_2, np.ones(30), 1), want)


def test_cap_guards_support_tables_before_allocation(monkeypatch):
    """d^{tn} = 64 is under the cap, but the two 4590 x 64 tables of R_support
    over Sigma_{6,6}(2) are a square of side 767: refused before any
    allocation."""
    sigma = stochastic_lagrangians(6, 2)
    monkeypatch.setenv("STABKIT_DIM_CAP", "766")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="767"):
            R_support(sigma, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # the tables would take 4.7 MB
    monkeypatch.setenv("STABKIT_DIM_CAP", "767")
    rows, cols = R_support(sigma, 1)
    assert rows.shape == cols.shape == (len(sigma), 64)


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_support_peak_is_its_tables():
    """The two tables of Sigma_{6,6}(2) at n = 1 take 4.5 MB; the element
    tensor route peaked at 9.4 MB, the doubling route at 5.2 MB."""
    stack = sigma_stack(6, 2)
    assert _peak_mb(R_support, stack, 1, 2) < 6


def test_memory_peaks():
    stochastic_lagrangians(6, 2)
    stochastic_lagrangians(4, 2)
    assert _peak_mb(stab_moment_operator, 6, 1, 2) < 16
    psi = _haar_state(np.random.default_rng(1), 8)
    assert _peak_mb(orbit_moment_vector, psi, 4, 3, 2) < 8
