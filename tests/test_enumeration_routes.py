"""Echelon enumeration and the list-row kernel against the earlier routes.

The oracles below are the earlier implementations: a numpy row-by-row RREF,
a breadth-first search that grows every flag of a subspace one vector at a
time and merges duplicates through the canonical key, and a column DFS for
O_t(d) with scalar dot and quadratic-form calls.  The library builds each
subspace once from its RREF pattern and filters candidate rows with numpy.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabkit.commutant import defect_subspaces, orthogonal_stochastic_group, stochastic_lagrangians
from stabkit.gf import (
    Subspace,
    all_vectors,
    dot,
    form_modulus,
    gram_dot,
    gram_symplectic,
    is_q_isotropic,
    quadratic_q,
    rref,
)
from stabkit.stabilizer import lagrangians


def _rref_rowloop(matrix, d):
    """Row reduction with numpy element access, one row operation at a time."""
    a = np.atleast_2d(np.array(matrix, dtype=np.int64)) % d
    if a.shape[0] == 0 or a.shape[1] == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 0), []
    rows, cols = a.shape
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c] % d != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, d)) % d
        for i in range(rows):
            if i != r and a[i, c] % d != 0:
                a[i] = (a[i] - a[i, c] * a[r]) % d
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivot_cols


def _grow_subspaces(gram, d, k, admissible):
    """Breadth-first growth from 0 by one complement vector at a time, deduplicated."""
    ambient = gram.shape[0]
    level = {Subspace.zero(ambient, d)}
    for _ in range(k):
        nxt = set()
        for s in level:
            for v in s.complement(gram).vectors():
                if not v.any() or s.contains(v):
                    continue
                cand = np.vstack([s.basis, v])
                if admissible(cand):
                    nxt.add(Subspace(cand, d, ambient))
        level = nxt
    return tuple(sorted(level, key=lambda s: s._key))


def _orthogonal_stochastic_dfs(t, d):
    """O_t(d) by a column DFS with scalar form calls."""
    D = form_modulus(d)
    ones = np.ones(t, dtype=np.int64)
    cand = [
        v
        for v in all_vectors(t, d)
        if dot(v, v, d) == 1 % d and quadratic_q(v, d) % D == 1 % D and dot(v, ones, d) == 1 % d
    ]
    out = []

    def rec(cols):
        if len(cols) == t:
            out.append(np.array(cols, dtype=np.int64).T)
            return
        for c in cand:
            if any(dot(c, prev, d) for prev in cols):
                continue
            rec(cols + [c])

    rec([])
    return out


@st.composite
def matrices(draw):
    d = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 16))
    data = draw(st.lists(st.integers(0, 3 * d), min_size=rows * cols, max_size=rows * cols))
    return np.array(data, dtype=np.int64).reshape(rows, cols), d


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_rowloop(md):
    m, d = md
    r, piv = rref(m, d)
    r_old, piv_old = _rref_rowloop(m, d)
    assert piv == piv_old
    assert r.dtype == r_old.dtype and r.shape == r_old.shape
    assert np.array_equal(r, r_old)
    s = Subspace(m, d)
    assert np.array_equal(s.basis, r_old) and list(s.pivots) == piv_old


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (2, 5)])
def test_lagrangians_match_bfs(n, d):
    old = _grow_subspaces(gram_symplectic(2 * n, d), d, n, lambda cand: True)
    new = lagrangians(n, d)
    assert [s._key for s in new] == [s._key for s in old]


@pytest.mark.parametrize("t,d", [(6, 2), (4, 3), (4, 5), (3, 7), (5, 2)])
def test_defect_subspaces_match_bfs(t, d):
    def admissible(cand):
        return not cand[-1].sum() % d and is_q_isotropic(cand, d)

    for k in range(t // 2 + 1):
        old = _grow_subspaces(gram_dot(t, d), d, k, admissible)
        new = defect_subspaces(t, d, k)
        assert [s._key for s in new] == [s._key for s in old], k


@pytest.mark.parametrize("t,d", [(4, 2), (6, 2), (4, 3), (5, 3), (4, 5)])
def test_orthogonal_stochastic_group_matches_dfs(t, d):
    old = _orthogonal_stochastic_dfs(t, d)
    new = orthogonal_stochastic_group(t, d)
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


# sha256 of repr([T._key for T in stochastic_lagrangians(t, d)]), recorded
# from the breadth-first defect search with per-candidate rank checks
SIGMA_KEYS = {
    (6, 2): "d50f7ce51bbaba56cecdfa90ae682f46b56e3cb28b8169972eacb26942a28751",
    (4, 3): "0aeafde5fb41ee6286ec3f153f4fcad9e2641a9112d60b1e83f23279b29a1806",
    (4, 5): "9f62609efbc7205c80ac83424463d7e7b94f4b71c9fe9d71fcfacfeda28ea637",
    (3, 7): "8cf799505dd5653fa3f6d6586d360ec4f28dc8a1257dc1b279ea2474c719e4c5",
    (5, 3): "fc82c2faaeff129e21d7e400c00b19ef7c334e9a0d17245e956f5b28d6f478f9",
}


@pytest.mark.parametrize("t,d", sorted(SIGMA_KEYS))
def test_stochastic_lagrangian_keys_unchanged(t, d):
    keys = [T._key for T in stochastic_lagrangians(t, d)]
    assert hashlib.sha256(repr(keys).encode()).hexdigest() == SIGMA_KEYS[t, d]


def test_four_qubit_lagrangians():
    assert len(lagrangians(4, 2)) == 2295
