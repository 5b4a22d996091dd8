"""Exact linear algebra over prime fields."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.gf import (
    Subspace,
    all_vectors,
    coset_reps,
    dot,
    echelon_subspaces,
    flat_index,
    form_modulus,
    gram_dot,
    gram_symplectic,
    nullspace,
    quadratic_Q_vec,
    quadratic_q,
    rref,
    solve,
    sum_index,
    symplectic_form,
)
from stabkit.phase_space import ResourceCapError

primes = st.sampled_from([2, 3, 5])


@st.composite
def matrices(draw):
    d = draw(primes)
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 6))
    data = draw(
        st.lists(
            st.lists(st.integers(0, d - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.array(data, dtype=np.int64), d


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rref_idempotent(md):
    m, d = md
    r1, piv1 = rref(m, d)
    r2, piv2 = rref(r1, d)
    assert np.array_equal(r1, r2)
    assert piv1 == piv2


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_annihilates(md):
    m, d = md
    ns = nullspace(m, d)
    if len(ns):
        assert not ((m @ ns.T) % d).any()
    r, piv = rref(m, d)
    assert len(ns) + len(piv) == m.shape[1]


@given(matrices())
@settings(max_examples=100, deadline=None)
def test_solve_consistent(md):
    m, d = md
    rng = np.random.default_rng(0)
    x0 = rng.integers(0, d, m.shape[1])
    rhs = (m @ x0) % d
    x = solve(m, rhs, d)
    assert x is not None
    assert np.array_equal((m @ x) % d, rhs)


@given(matrices(), matrices())
@settings(max_examples=100, deadline=None)
def test_subspace_intersection_contained(md1, md2):
    m1, d = md1
    m2, _ = md2
    cols = min(m1.shape[1], m2.shape[1])
    a = Subspace(m1[:, :cols], d, cols)
    b = Subspace(m2[:, :cols] % d, d, cols)
    c = a.intersect(b)
    assert a.contains_space(c) and b.contains_space(c)
    # dim(a + b) + dim(a cap b) = dim a + dim b
    assert (a + b).dim + c.dim == a.dim + b.dim


def test_subspace_canonical_equality():
    d = 3
    b1 = Subspace(np.array([[1, 2, 0], [0, 1, 1]]), d)
    b2 = Subspace(np.array([[2, 4, 0], [1, 3, 1]]) % d, d)
    assert b1 == b2
    assert hash(b1) == hash(b2)


def test_complement_dimension_and_double():
    d = 2
    s = Subspace(np.array([[1, 1, 0, 0], [0, 0, 1, 1]]), d)
    g = gram_dot(4, d)
    c = s.complement(g)
    assert c.dim == 4 - s.dim
    assert c.complement(g) == s


def test_coset_reps_count_and_coverage():
    d = 2
    sup = Subspace(np.eye(3, dtype=np.int64), d)
    sub = Subspace(np.array([[1, 1, 1]]), d)
    reps = coset_reps(sup, sub)
    assert len(reps) == sup.size // sub.size
    seen = set()
    for r in reps:
        for v in (r + sub.vectors()) % d:
            seen.add(tuple(v.tolist()))
    assert len(seen) == sup.size


@given(primes, st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_quadratic_form_modulus(d, t):
    rng = np.random.default_rng(d * 10 + t)
    D = form_modulus(d)
    assert D == (2 * d if d == 2 else d)
    x = rng.integers(0, d, t)
    assert quadratic_q(x, d) == int(x @ x) % D


def test_symplectic_form_antisymmetry():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5):
        x = rng.integers(0, d, 6)
        y = rng.integers(0, d, 6)
        assert (symplectic_form(x, y, d) + symplectic_form(y, x, d)) % d == 0


def test_quadratic_Q_vanishes_on_diagonal():
    for d in (2, 3):
        rng = np.random.default_rng(d)
        x = rng.integers(0, d, 4)
        v = np.concatenate([x, x])
        assert quadratic_Q_vec(v, d) == 0


def test_zero_subspace_operations():
    z = Subspace.zero(4, 3)
    assert z.dim == 0 and z.size == 1
    assert z.contains(np.zeros(4, dtype=np.int64))
    full = Subspace(np.eye(4, dtype=np.int64), 3)
    assert full.intersect(z) == z


@given(st.integers(0, 6), st.integers(1, 7))
@settings(max_examples=100, deadline=None)
def test_flat_index_inverts_all_vectors(k, base):
    vecs = all_vectors(k, base)
    assert vecs.shape == (base**k, k)
    assert np.array_equal(flat_index(vecs, base), np.arange(base**k))


@given(st.integers(0, 3), st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_sum_index_adds_digit_rows(k, base):
    vecs = all_vectors(k, base)
    want = flat_index((vecs[:, None, :] + vecs[None, :, :]) % base, base)
    assert np.array_equal(sum_index(k, base), want)


def test_echelon_subspaces_cap_guards_both_tables(monkeypatch):
    # Z_3^4: 81 rows of 4 digits (as many entries as an 18-sided operator),
    # 40 candidates with a leading 1 and a 40 x 40 orthogonality table
    args = gram_symplectic(4, 3), 3, 2, lambda vecs: np.ones(len(vecs), dtype=bool)
    monkeypatch.setenv("STABKIT_DIM_CAP", "17")
    with pytest.raises(ResourceCapError, match="dimension 18 exceeds cap 17"):
        echelon_subspaces(*args)
    monkeypatch.setenv("STABKIT_DIM_CAP", "39")
    with pytest.raises(ResourceCapError, match="dimension 40 exceeds cap 39"):
        echelon_subspaces(*args)
    monkeypatch.setenv("STABKIT_DIM_CAP", "40")
    assert len(echelon_subspaces(*args)) == (3 + 1) * (9 + 1)
