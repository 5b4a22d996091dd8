"""Exact linear algebra over prime fields."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit import gf
from stabkit.gf import (
    Subspace,
    all_vectors,
    coset_reps,
    dot,
    echelon_subspaces,
    extend_tuples,
    flat_index,
    form_modulus,
    gram_dot,
    gram_symplectic,
    nullspace,
    quadratic_Q_vec,
    quadratic_q,
    rref,
    rref_stack,
    solve,
    symplectic_form,
)
from stabkit.phase_space import ResourceCapError

from oracles import intersect_nullspace, subspace_bits, sum_index

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
    # Z_3^4: 40 of the 81 digit rows have a leading 1; the running count of
    # these candidates guards both their table and the 40 x 40 orthogonality table
    seen = []

    def admissible(vecs):
        seen.append(len(vecs))
        return np.ones(len(vecs), dtype=bool)

    args = gram_symplectic(4, 3), 3, 2, admissible
    monkeypatch.setenv("STABKIT_DIM_CAP", "39")
    with pytest.raises(ResourceCapError, match="dimension 40 exceeds cap 39"):
        echelon_subspaces(*args)
    # in blocks of 8 digit rows the count is refused before the scan ends
    monkeypatch.setattr(gf, "_FRONTIER_BLOCK", 8)
    monkeypatch.setenv("STABKIT_DIM_CAP", "10")
    seen.clear()
    with pytest.raises(ResourceCapError):
        echelon_subspaces(*args)
    assert set(seen) == {8} and sum(seen) < 81
    monkeypatch.setenv("STABKIT_DIM_CAP", "40")
    assert len(echelon_subspaces(*args)) == (3 + 1) * (9 + 1)


def test_echelon_orthogonality_table_is_built_in_row_blocks():
    """The Lagrangians of Z_3^8 have 3280 candidate rows; the boolean
    3280 x 3280 table of which row may follow which is built a block of
    rows at a time, so no int64 table of that side (86 MB) is made and the
    scan peaks under 100 MB."""
    args = gram_symplectic(8, 3), 3, 4, lambda vecs: np.ones(len(vecs), dtype=bool)
    tracemalloc.start()
    try:
        stack = gf.echelon_stack(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stack) == (3 + 1) * (9 + 1) * (27 + 1) * (81 + 1)
    assert peak < 100e6

def _extend_brute(chosen, values, want, slot_ok):
    """Every completion of each row of chosen, by itertools.product over all tails."""
    length, count = slot_ok.shape
    out = []
    for row in chosen.tolist():
        for tail in itertools.product(range(count), repeat=length - len(row)):
            full = row + list(tail)
            if all(
                slot_ok[i, full[i]] and all(values[full[l], full[i]] == want[i, l] for l in range(i))
                for i in range(len(row), length)
            ):
                out.append(full)
    return np.array(out, dtype=np.int64).reshape(len(out), length)


def _check_extend(chosen, values, want, slot_ok, block):
    before = gf._FRONTIER_BLOCK
    gf._FRONTIER_BLOCK = block
    try:
        got = extend_tuples(chosen, values, want, slot_ok)
    finally:
        gf._FRONTIER_BLOCK = before
    want_rows = _extend_brute(chosen, values, want, slot_ok)
    assert got.dtype == np.int64 and got.shape == want_rows.shape
    assert np.array_equal(got, want_rows)


@st.composite
def tuple_searches(draw):
    count, length = draw(st.integers(0, 5)), draw(st.integers(0, 4))
    start = draw(st.integers(0, length))
    rows = draw(st.integers(0, 3)) if count else draw(st.integers(0, 1)) * (start == 0)

    def table(shape, elements):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=np.int64).reshape(shape)

    values = table((count, count), st.integers(0, 2))
    want = table((length, length), st.integers(0, 2))
    slot_ok = table((length, count), st.integers(0, 1)).astype(bool)
    chosen = table((rows, start), st.integers(0, max(count - 1, 0)))
    return chosen, values, want, slot_ok, draw(st.sampled_from([1, 2, 4096]))


@given(tuple_searches())
@settings(max_examples=300, deadline=None)
def test_extend_tuples_matches_product_search(search):
    _check_extend(*search)


def test_extend_tuples_empty_level_and_given_start():
    values = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 1]])
    want = np.ones((3, 3), dtype=np.int64)
    slot_ok = np.ones((3, 3), dtype=bool)
    chosen = np.array([[0], [2], [1]])
    # the completions of each start row in turn; [1] has none
    want_rows = [[0, 2, 2], [2, 0, 2], [2, 2, 0], [2, 2, 2]]
    assert extend_tuples(chosen, values, want, slot_ok).tolist() == want_rows
    _check_extend(chosen, values, want, slot_ok, 1)
    # a level with no admissible index ends every row
    slot_ok[1] = False
    assert extend_tuples(chosen, values, want, slot_ok).shape == (0, 3)
    _check_extend(chosen, values, want, slot_ok, 2)


def _list_route(mat):
    """The d = 2 canonical basis by the Python-list route `_rref_rows`:
    (basis, pivots, key) as `Subspace` stores them."""
    cols = mat.shape[1]
    rows, pivots = gf._rref_rows((mat % 2).tolist(), cols, 2)
    basis = np.array(rows, dtype=np.int64).reshape(len(rows), cols)
    return basis, tuple(pivots), (2, cols, tuple(map(tuple, rows)))


@pytest.mark.parametrize("cols", [1, 12, 14, 16, 17, 63, 64, 65])
def test_packed_routes_match_list_route(cols):
    """The XOR routes for d = 2 (one int per row in `Subspace` and `rref`,
    one unsigned word per row in `rref_stack` up to 64 columns, the int16
    sweep past them) against the list route, on random stacks with zero
    rows, all-zero matrices, repeated rows and negative entries."""
    rng = np.random.default_rng(cols)
    for r in (0, 1, 3, 7):
        stack = rng.integers(-3, 3, size=(40, r, cols))
        stack[:4] = 0
        if r > 1:
            stack[4:12, -1] = stack[4:12, 0]
            stack[12:16, 0] = 0
        if r > 2:  # the first row the sum of the next two: a dependent row
            stack[16:24, 0] = stack[16:24, 1] + stack[16:24, 2]
        reduced = rref_stack(stack, 2)
        assert reduced.shape == stack.shape and reduced.dtype == np.int64
        for mat, red, S in zip(stack, reduced, gf.subspaces(stack, 2)):
            basis, pivots, key = _list_route(mat)
            k = len(basis)
            assert np.array_equal(red[:k], basis) and not red[k:].any()
            for got in (Subspace(mat, 2, cols), S):
                assert got.basis.dtype == np.int64 and not got.basis.flags.writeable
                assert np.array_equal(got.basis, basis) and got.basis.shape == basis.shape
                assert got.pivots == pivots and got._key == key
            R, piv = rref(mat, 2)
            assert R.dtype == np.int64 and np.array_equal(R, basis) and tuple(piv) == pivots


@pytest.mark.parametrize("cols", [1, 12, 63, 64, 65])
def test_constructor_packing_matches_list_route(cols):
    """`Subspace` packs d = 2 rows by `rows & 1`, which equals `rows % 2`
    for every int64, and below 64 columns unpacks the reduced words by one
    shift-and-mask.  Against the list route on the extremes of int64, with
    the input also given as nested lists and, for one row, as a vector."""
    rng = np.random.default_rng(cols)
    info = np.iinfo(np.int64)
    extremes = np.array([info.min, info.min + 1, info.max, info.max - 1, -1, -2, 2, 3])
    for r in (1, 2, 5, 9):
        mat = rng.choice(extremes, size=(r, cols))
        basis, pivots, key = _list_route(mat)
        inputs = [mat, mat.tolist()] + ([mat[0], mat[0].tolist()] if r == 1 else [])
        for given in inputs:
            got = Subspace(given, 2)
            assert got.basis.dtype == np.int64 and not got.basis.flags.writeable
            assert np.array_equal(got.basis, basis) and got.basis.shape == basis.shape
            assert got.pivots == pivots and got._key == key


def test_cached_prime_check_and_constructor_errors():
    """The primality of d is cached: a non-prime d is still refused after a
    prime d was seen, by `Subspace` and by `subspaces`.  An ambient
    mismatch and a zero subspace without `ambient` raise as before."""
    eye = np.eye(2, dtype=np.int64)
    for d in (2, 4, 3, 9, 2, 4, 7, 1, 0, -3, 2, 6):
        if d in (2, 3, 7):
            assert gf.is_prime(d) and Subspace(eye, d).dim == 2
        else:
            assert not gf.is_prime(d)
            with pytest.raises(ValueError, match="not prime"):
                Subspace(eye, d)
            with pytest.raises(ValueError, match="not prime"):
                gf.subspaces(eye[None], d)
    assert [n for n in range(30) if gf.is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    for d in (2, 3):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            Subspace(np.eye(3, dtype=np.int64), d, 4)
        for empty in ([], np.zeros((0, 4), dtype=np.int64)):
            with pytest.raises(ValueError, match="ambient dimension required"):
                Subspace(empty, d)
            assert Subspace(empty, d, 4) == Subspace.zero(4, d)


def _intersect_pairs(d, cols, rng):
    """Zero, full and disjoint pairs, a subspace with itself and with a
    subspace of it, then random pairs that share a random part, all built
    from entries outside [0, d)."""
    eye = np.eye(cols, dtype=np.int64)
    zero, full = Subspace.zero(cols, d), Subspace.full(cols, d)
    left, right = Subspace(eye[:cols // 2], d, cols), Subspace(eye[cols // 2:] - d, d, cols)
    yield from [(zero, zero), (zero, full), (full, zero), (full, full), (left, right),
                (right, left), (left, full), (full, right), (right, zero)]
    lift = 3 * d
    for _ in range(40):
        k, ra, rb = rng.integers(0, min(cols, 4) + 1, size=3)
        shared = rng.integers(-lift, lift, size=(k, cols))
        a = np.vstack([rng.integers(-lift, lift, size=(k, k)) @ shared,
                       rng.integers(-lift, lift, size=(ra, cols))])
        b = np.vstack([rng.integers(-lift, lift, size=(k, k)) @ shared,
                       rng.integers(-lift, lift, size=(rb, cols))])
        A, B = Subspace(a, d, cols), Subspace(b, d, cols)
        yield from [(A, B), (A, A), (A, Subspace(A.basis[::2], d, cols))]


@pytest.mark.parametrize("d,cols", [(2, 1), (2, 6), (2, 31), (2, 32), (2, 63), (2, 64), (2, 65),
                                    (3, 1), (3, 7), (5, 6), (7, 5)])
def test_intersect_matches_nullspace_route(d, cols):
    """`Subspace.intersect` reads A cap B from one elimination of
    [B' | B' - B], B' = B cleared at A's pivots; the oracle solves for the
    coefficients through a nullspace and reduces again.  Key, pivots,
    basis, dtype and read-only flag agree bit for bit, on both sides of
    the 64-column switch of the d = 2 packing for the doubled rows (32
    columns) and for the result (64 columns)."""
    for A, B in _intersect_pairs(d, cols, np.random.default_rng([d, cols])):
        got = A.intersect(B)
        assert subspace_bits(got) == subspace_bits(intersect_nullspace(A, B))
        assert got.dim + (A + B).dim == A.dim + B.dim


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_membership_matches_intersection(d):
    """`contains` and `contains_space` clear the rows at A's pivot columns
    by one product, as `intersect` and `coset_reps` do; on 2000 random
    pairs, about half of them with B inside A, B lies in A iff
    A cap B == B, and a vector v lies in A iff A cap span(v) == span(v)."""
    rng = np.random.default_rng([d, 54])
    for _ in range(2000):
        cols = int(rng.integers(1, 7))
        A = Subspace(rng.integers(-d, 2 * d, size=(rng.integers(0, cols + 1), cols)), d, cols)
        b = rng.integers(-d, 2 * d, size=(rng.integers(0, 3), A.dim)) @ A.basis
        if rng.random() < 0.5:
            b = np.vstack([b, rng.integers(-d, 2 * d, size=(1, cols))])
        B = Subspace(b, d, cols)
        assert A.contains_space(B) == (A.intersect(B) == B)
        for v in b:
            line = Subspace(v[None], d, cols)
            assert A.contains(v) == (A.intersect(line) == line)
