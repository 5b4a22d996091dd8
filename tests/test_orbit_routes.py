"""Set-level canonicalisation and integer orbit closures against the earlier routes.

The oracles below are the earlier implementations: Sigma_{t,t}(d) built
one element at a time (a recursive search over quotient isometries, one
`Subspace` reduction per element, deduplicated through a set), orbit
closure by breadth-first search over a neighbours callback that builds a
new `Subspace` for every (element, generator) pair, and the semigroup
product through three nullspaces.  The library reduces whole stacks of
bases in one `gf.rref_stack` call and closes orbits on integer image
tables.  Coset representatives were the least members found by a loop
over sorted members that marks each coset as seen; the library lists the
members of sup with zeros at the pivot columns of the subspace.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.clifford import enumerate_sp, sp_orbit_count
from stabkit.commutant import (
    R_gram,
    _quotient_images,
    _quotient_sources,
    compose,
    compose_constant,
    defect_subspaces,
    diagonal_subspace,
    double_cosets,
    left_defect,
    left_right_act,
    orthogonal_stochastic_group,
    right_defect,
    sigma_count_formula,
    stochastic_lagrangians,
)
from stabkit.gf import (
    Subspace,
    all_vectors,
    coset_reps,
    flat_index,
    generating_set,
    gram_dot,
    image_indices,
    nullspace,
    orbits,
    rref,
    rref_stack,
    subspaces,
)
from stabkit.moments import class_gram, sigma_classes, stab_moment_coefficients
from stabkit.phase_space import DEFAULT_DIM_CAP, ResourceCapError
from stabkit.stabilizer import lagrangians

import oracles


# --- oracles ----------------------------------------------------------------

def _orbits_bfs(items, neighbours):
    """Orbits by closure under neighbours(x), grown from the first unseen item."""
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


def _isometries_rec(images, sources):
    """Each quotient isometry as (src, image vectors), by depth-first search."""
    table, table_q, table_dots, hits_ones = images
    src, src_q, src_dots, forced = sources
    m = len(src)
    last = len(table) - 1

    def rec(i, chosen):
        if i == m:
            yield src, table[chosen]
            return
        dots_match = (table_dots[:last, chosen] == src_dots[i, :i]).all(axis=1)
        for r in np.flatnonzero((table_q[:last] == src_q[i]) & dots_match):
            yield from rec(i + 1, chosen + [r])

    if forced:
        if hits_ones:
            yield from rec(1, [last])
    else:
        yield from rec(0, [])


def _stochastic_lagrangians_per_element(t, d):
    ones = np.ones(t, dtype=np.int64)
    out = []
    for k in range(t // 2 + 1):
        defects = defect_subspaces(t, d, k)
        has_ones = [N.contains(ones) for N in defects]
        for N, N_ones in zip(defects, has_ones):
            image = _quotient_images(t, d, N)
            for M, M_ones in zip(defects, has_ones):
                if N_ones != M_ones:
                    continue
                for src, imgs in _isometries_rec(image, _quotient_sources(t, d, M)):
                    m = len(imgs)
                    rows = np.zeros((m + N.dim + M.dim, 2 * t), dtype=np.int64)
                    rows[:m, :t] = imgs
                    rows[:m, t:] = src
                    rows[m:m + N.dim, :t] = N.basis
                    rows[m + N.dim:, t:] = M.basis
                    out.append(Subspace(rows, d, 2 * t))
    return tuple(sorted(set(out), key=lambda s: s._key))


def _left_permute(T, perm):
    t = T.ambient // 2
    cols = list(range(2 * t))
    for j in range(t):
        cols[perm[j]] = j
    return Subspace(T.basis[:, cols], T.d)


def _right_permute(T, perm):
    t = T.ambient // 2
    cols = list(range(2 * t))
    for j in range(t):
        cols[t + perm[j]] = t + j
    return Subspace(T.basis[:, cols], T.d)


def _transpose(T):
    t = T.ambient // 2
    return Subspace(np.hstack([T.basis[:, t:], T.basis[:, :t]]), T.d)


def _sigma_classes_bfs(t, d):
    Ts = stochastic_lagrangians(t, d)
    index = {T: i for i, T in enumerate(Ts)}
    gens = []
    for k in range(t - 1):
        g = list(range(t))
        g[k], g[k + 1] = g[k + 1], g[k]
        gens.append(tuple(g))

    def neighbours(i):
        T = Ts[i]
        yield index[_transpose(T)]
        for g in gens:
            yield index[_left_permute(T, g)]
            yield index[_right_permute(T, g)]

    classes = [tuple(sorted(orbit)) for orbit in _orbits_bfs(range(len(Ts)), neighbours)]
    first = [c for c in classes if index[next(iter(oracles.permutation_subspaces(t, d)))] in c]
    return tuple(first + [c for c in classes if c is not first[0]])


def _double_cosets_bfs(t, d):
    group = orthogonal_stochastic_group(t, d)
    ident = np.eye(t, dtype=np.int64)

    def neighbours(T):
        for O in group:
            yield left_right_act(O, T, ident)
            yield left_right_act(ident, T, O)

    by_bytes = lambda s: s.basis.tobytes()
    cosets = []
    for orbit in _orbits_bfs(sorted(stochastic_lagrangians(t, d), key=by_bytes), neighbours):
        members = tuple(sorted(orbit, key=by_bytes))
        cosets.append((len(orbit), members))
    return sorted(cosets, key=lambda c: -c[0])


def _sp_orbit_count_bfs(d, t):
    k = t - 1
    group_T = np.array(enumerate_sp(d)).transpose(0, 2, 1)
    pts = all_vectors(2 * k, d).reshape(-1, k, 2)

    def neighbours(j):
        images = (pts[j] @ group_T) % d
        return flat_index(images.reshape(len(group_T), -1), d).tolist()

    return len(_orbits_bfs(range(d ** (2 * k)), neighbours))


def _compose_nullspaces(T1, T2):
    t, d = T1.ambient // 2, T1.d
    A1 = nullspace(T1.basis, d)
    A2 = nullspace(T2.basis, d)
    C = np.zeros((len(A1) + len(A2), 3 * t), dtype=np.int64)
    C[: len(A1), : 2 * t] = A1
    C[len(A1):, t:] = A2
    sol = nullspace(C, d)
    proj = np.hstack([sol[:, :t], sol[:, 2 * t:]])
    return Subspace(proj, d), right_defect(T1).intersect(left_defect(T2)).dim


def _coset_reps_loop(sup, sub):
    """Least member of each coset, walking the members in sorted order."""
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


# --- batched canonicalisation -------------------------------------------------

@st.composite
def stacks(draw):
    d = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 10))
    data = draw(st.lists(st.integers(-d, 3 * d), min_size=m * rows * cols, max_size=m * rows * cols))
    stack = np.array(data, dtype=np.int64).reshape(m, rows, cols)
    # mixed ranks: zero matrices and repeated rows
    zero = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    stack[np.array(zero)] = 0
    if rows > 1 and draw(st.booleans()):
        stack[:, -1] = 2 * stack[:, 0]
    return stack, d


@given(stacks())
@settings(max_examples=300, deadline=None)
def test_subspaces_match_single_subspace(sd):
    stack, d = sd
    out = subspaces(stack, d)
    assert len(out) == len(stack)
    for S, mat in zip(out, stack):
        want = Subspace(mat, d)
        assert S._key == want._key and S.pivots == want.pivots
        assert S.basis.dtype == want.basis.dtype and S.basis.shape == want.basis.shape
        assert np.array_equal(S.basis, want.basis)
        assert not S.basis.flags.writeable
        assert S == want and hash(S) == hash(want)


@given(stacks())
@settings(max_examples=100, deadline=None)
def test_rref_stack_matches_rref(sd):
    stack, d = sd
    out = rref_stack(stack, d)
    assert out.shape == stack.shape
    for reduced, mat in zip(out, stack):
        want, _ = rref(mat, d)
        assert np.array_equal(reduced[:len(want)], want)
        assert not reduced[len(want):].any()


@pytest.mark.parametrize("d", [191, 65537, 2**31 - 1])
def test_rref_stack_matches_rref_past_int16(d):
    """Primes whose residue products need int64; past 2^16 the pivots are
    inverted one by one instead of from the table of inverses."""
    rng = np.random.default_rng(d % 1000)
    stack = rng.integers(-(2**40), 2**40, size=(30, 4, 6))
    stack[:3] = 0
    stack[3:9, 1] = 5 * stack[3:9, 0]
    out = rref_stack(stack, d)
    for reduced, mat in zip(out, stack):
        want, _ = rref(mat, d)
        assert np.array_equal(reduced[:len(want)], want)
        assert not reduced[len(want):].any()


def test_rref_stack_keeps_a_narrow_type():
    stack = np.array([[[1, 1], [1, 0]], [[0, 0], [0, 0]]], dtype=np.uint8)
    out = rref_stack(stack, 2)
    assert out.dtype == np.uint8
    assert out.tolist() == [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]


def test_subspaces_reject_composite_d():
    with pytest.raises(ValueError, match="not prime"):
        subspaces(np.zeros((1, 1, 2), dtype=np.int64), 4)


def test_rref_stack_rejects_a_prime_past_int64():
    with pytest.raises(ValueError, match="too large"):
        rref_stack(np.ones((1, 1, 2), dtype=np.int64), 2**61 - 1)


def test_image_indices_rejects_a_map_off_the_set():
    Ts = stochastic_lagrangians(3, 3)
    bases = np.array([T.basis for T in Ts])
    assert image_indices(bases, bases, 3).tolist() == list(range(len(Ts)))
    off = bases.copy()
    off[0] = 0
    with pytest.raises(ValueError, match="permutation"):
        image_indices(bases, off, 3)


# --- Sigma_{t,t}(d) -------------------------------------------------------------

@pytest.mark.parametrize("t,d", [(6, 2), (4, 3), (4, 5), (3, 7), (5, 3)])
def test_stochastic_lagrangians_match_per_element(t, d):
    old = _stochastic_lagrangians_per_element(t, d)
    new = stochastic_lagrangians(t, d)
    assert [T._key for T in new] == [T._key for T in old]
    assert all(np.array_equal(a.basis, b.basis) and a.pivots == b.pivots for a, b in zip(new, old))


# --- orbit closures ---------------------------------------------------------------

@given(st.integers(1, 40), st.integers(0, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_orbits_match_bfs_on_random_permutations(n, gens, seed):
    rng = np.random.default_rng(seed)
    images = np.array([rng.permutation(n) for _ in range(gens)], dtype=np.int64).reshape(gens, n)
    old = _orbits_bfs(range(n), lambda i: images[:, i].tolist())
    new = orbits(images)
    assert [o.tolist() for o in new] == [sorted(o) for o in old]


@pytest.mark.parametrize("table", [[0, 0, 1], [1, 2, 3], [2, 0, -1], [0, 2, 2, 1]])
def test_orbits_refuse_a_table_that_is_not_a_permutation(table):
    with pytest.raises(ValueError):
        orbits([list(range(len(table))), table])


@pytest.mark.parametrize("t,d", [(3, 3), (4, 2), (4, 3), (5, 2), (3, 5), (4, 5), (5, 3), (6, 2)])
def test_sigma_classes_match_bfs(t, d):
    assert sigma_classes(t, d) == _sigma_classes_bfs(t, d)


@pytest.mark.parametrize("t,d", [(3, 3), (4, 2), (4, 3), (5, 2), (3, 5)])
def test_double_cosets_match_bfs(t, d):
    old = _double_cosets_bfs(t, d)
    new = double_cosets(t, d)
    assert [(c["size"], c["members"]) for c in new] == old
    assert all(c["representative"] is c["members"][0] for c in new)


@pytest.mark.parametrize("d,t", [(2, 2), (3, 2), (2, 3), (3, 3), (5, 3), (2, 5), (3, 4), (7, 2)])
def test_sp_orbit_count_matches_bfs(d, t):
    assert sp_orbit_count(d, t) == _sp_orbit_count_bfs(d, t)


# --- the semigroup product ----------------------------------------------------------

@pytest.mark.parametrize("t,d,pairs", [(4, 2, None), (3, 3, None), (2, 5, None), (4, 3, 400), (3, 5, 400)])
def test_compose_matches_nullspaces(t, d, pairs):
    sigma = stochastic_lagrangians(t, d)
    if pairs is None:
        todo = [(a, b) for a in sigma for b in sigma]
    else:
        rng = np.random.default_rng(t * d)
        todo = [(sigma[i], sigma[j]) for i, j in rng.integers(len(sigma), size=(pairs, 2))]
    for T1, T2 in todo:
        want = _compose_nullspaces(T1, T2)
        assert compose(T1, T2) == want
        assert compose_constant(T1, T2) == want[1]


@pytest.mark.parametrize("t,d", [(3, 3), (4, 2)])
def test_compose_and_intersect_match_two_reduction_routes(t, d):
    """`compose` reads T1 o T2 from the rows of the one elimination in
    `_compose_rref` and `intersect` reads T1 cap T2 from one elimination;
    the oracles reduce each result a second time.  On all pairs, every
    stored field agrees bit for bit and so does the constant k."""
    sigma = stochastic_lagrangians(t, d)
    for T1 in sigma:
        for T2 in sigma:
            got, k = compose(T1, T2)
            want, want_k = oracles.compose_rereduce(T1, T2)
            assert oracles.subspace_bits(got) == oracles.subspace_bits(want)
            assert k == want_k == compose_constant(T1, T2)
            meet = oracles.intersect_nullspace(T1, T2)
            assert oracles.subspace_bits(T1.intersect(T2)) == oracles.subspace_bits(meet)


@pytest.mark.parametrize("t,d", [(4, 3), (5, 2), (3, 5), (6, 2)])
def test_defects_match_two_reduction_route(t, d):
    """`left_defect` and `right_defect` read the defect from one
    elimination of T's basis with the other half's columns first; the
    oracle intersects T with the coordinate axis and reduces the cut basis
    again.  On every T, every stored field agrees bit for bit."""
    for T in stochastic_lagrangians(t, d):
        for side, defect in enumerate((left_defect, right_defect)):
            want = oracles.defect_two_reductions(T, side)
            assert oracles.subspace_bits(defect(T)) == oracles.subspace_bits(want)


# --- the frontier: t = 7 qubits and the O_t(d) double cosets at (6, 2), (5, 3) ---------

@pytest.fixture(scope="module")
def sigma_7_2():
    yield stochastic_lagrangians(7, 2)
    # the t = 7 tuples hold a few hundred MB; do not keep them for later tests
    sigma_classes.cache_clear()
    stochastic_lagrangians.cache_clear()


# sha256 of repr(keys) and repr(classes) at (t, d) = (7, 2), recorded from the
# per-element enumeration and the breadth-first closure over Subspace objects
SIGMA_7_2_KEYS = "79457d881dac8c9473785729ec789475d0600fddf66168d717e5554632778fd0"
CLASSES_7_2 = "82d7d80383e5a756dc2a6e78f9e9c8c86ad978797e3d802b8b844eb134bf3763"


def test_sigma_7_2(sigma_7_2):
    assert len(sigma_7_2) == sigma_count_formula(7, 2) == 151470
    keys = repr([T._key for T in sigma_7_2]).encode()
    assert hashlib.sha256(keys).hexdigest() == SIGMA_7_2_KEYS


def test_sigma_classes_7_2(sigma_7_2):
    classes = sigma_classes(7, 2)
    assert sorted(len(c) for c in classes) == [900, 5040, 22050, 35280, 44100, 44100]
    assert len(classes[0]) == 5040  # the permutation class comes first
    assert hashlib.sha256(repr(classes).encode()).hexdigest() == CLASSES_7_2


def test_gram_of_sigma_7_2_is_refused_by_the_cap(sigma_7_2, monkeypatch):
    # the 151470 x 151470 output would take 92 GB as float32
    monkeypatch.setenv("STABKIT_DIM_CAP", str(DEFAULT_DIM_CAP))
    with pytest.raises(ResourceCapError, match="151470"):
        R_gram(sigma_7_2, 1)


@pytest.mark.parametrize("t,n,d", [(4, 3, 2), (4, 2, 3), (5, 1, 2), (3, 2, 3), (2, 1, 5)])
def test_class_gram_sums_the_full_gram_over_each_class(t, n, d):
    G = oracles.R_gram(stochastic_lagrangians(t, d), n)
    classes = sigma_classes(t, d)
    want = [[int(G[row[0], list(cls)].sum()) for cls in classes] for row in classes]
    assert class_gram(t, n, d).tolist() == want


@pytest.mark.parametrize(
    "t,n,d,Z", [(4, 3, 2, 8640), (6, 2, 2, 230400), (7, 2, 2, 8294400), (7, 3, 2, 132710400)]
)
def test_class_gram_rows_sum_to_the_stabilizer_normaliser(t, n, d, Z, request):
    """Every row of the Gram matrix sums to Z = d^n prod_{k<t-1} (d^k + d^n),
    the normaliser of `stab_moment_coefficients`, so every row of H does."""
    if t == 7:
        request.getfixturevalue("sigma_7_2")  # its teardown drops the t = 7 caches
    assert Z == d**n * math.prod(d**k + d**n for k in range(t - 1))
    assert Z * stab_moment_coefficients(t, n, d)[0] == pytest.approx(1.0, rel=1e-15)
    assert class_gram(t, n, d).sum(axis=1).tolist() == [Z] * len(sigma_classes(t, d))


@pytest.mark.parametrize("t,d", [(6, 2), (5, 3)])
def test_double_cosets_frontier(t, d):
    cosets = double_cosets(t, d)
    sigma = stochastic_lagrangians(t, d)
    assert sum(c["size"] for c in cosets) == len(sigma) == sigma_count_formula(t, d)
    assert sorted(T._key for c in cosets for T in c["members"]) == [T._key for T in sigma]
    delta = diagonal_subspace(t, d)
    (home,) = [c for c in cosets if delta in c["members"]]
    assert home["size"] == len(orthogonal_stochastic_group(t, d))
    ones = np.ones(2 * t, dtype=np.int64)
    for c in cosets:
        assert {left_defect(T).dim for T in c["members"]} == {c["defect_dim"]}
        assert {T.contains(ones) for T in c["members"]} == {c["contains_ones"]}


# --- coset representatives and generating sets ---------------------------------

def _assert_coset_reps_match(sup, sub):
    got = coset_reps(sup, sub)
    want = _coset_reps_loop(sup, sub)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t,d", [(6, 2), (4, 3), (4, 5), (3, 7), (5, 3), (7, 2)])
def test_coset_reps_match_loop_on_defects(t, d):
    for k in range(t // 2 + 1):
        for N in defect_subspaces(t, d, k):
            _assert_coset_reps_match(N.complement(gram_dot(t, d)), N)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (1, 5)])
def test_coset_reps_match_loop_on_lagrangians(n, d):
    full = Subspace.full(2 * n, d)
    for M in lagrangians(n, d):
        _assert_coset_reps_match(full, M)


@given(stacks(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_coset_reps_match_loop(sd, seed):
    stack, d = sd
    if stack.shape[2] > 6:
        stack = stack[:, :, :6]  # keep d^dim members small
    sup = Subspace(stack[0], d, stack.shape[2])
    # sub: random combinations of sup's basis rows
    coeff = np.random.default_rng(seed).integers(0, d, size=(len(stack[0]), sup.dim))
    sub = Subspace(coeff @ sup.basis, d, sup.ambient)
    _assert_coset_reps_match(sup, sub)


def test_coset_reps_refuse_a_subspace_outside():
    sup = Subspace(np.array([[1, 0, 0]]), 3)
    with pytest.raises(ValueError):
        coset_reps(sup, Subspace(np.array([[0, 1, 0]]), 3))


@pytest.mark.parametrize("t,d", [(3, 2), (4, 2), (6, 2), (4, 3), (3, 5)])
def test_generating_set_generates_the_group(t, d):
    group = orthogonal_stochastic_group(t, d)
    gens = generating_set(group, d)
    seen = {np.eye(t, dtype=np.int64).tobytes()}
    frontier = [np.eye(t, dtype=np.int64)]
    while frontier:
        new = []
        for g in frontier:
            for h in gens:
                x = g @ h % d
                if x.tobytes() not in seen:
                    seen.add(x.tobytes())
                    new.append(x)
        frontier = new
    assert seen == {O.tobytes() for O in group}
