"""Stochastic Lagrangian subspaces and commutant operators."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from stabkit.gf import Subspace, form_modulus, quadratic_Q_vec
from stabkit.commutant import (
    R_gram,
    R_matrix,
    R_trace,
    anti_permutation,
    anti_identity_matrix,
    commutes_with_clifford,
    compose,
    compose_constant,
    css_projector,
    css_subspace,
    defect_decompose,
    defect_subspaces,
    diagonal_subspace,
    double_cosets,
    expectation_R,
    is_member_O,
    left_defect,
    left_right_act,
    linear_independence_check,
    orthogonal_stochastic_group,
    permutation_matrix,
    r_matrix,
    reconstruct,
    right_defect,
    sigma_count_formula,
    stochastic_lagrangians,
    subspace_from_matrix,
)


@pytest.mark.parametrize(
    "t,d,count",
    [(2, 2, 2), (3, 3, 8), (4, 2, 30), (4, 3, 80), (5, 2, 270), (3, 5, 12)],
)
def test_sigma_counts(t, d, count):
    sigma = stochastic_lagrangians(t, d)
    assert len(sigma) == count
    assert sigma_count_formula(t, d) == count
    ones = np.ones(2 * t, dtype=np.int64)
    for T in sigma:
        assert T.dim == t
        assert T.contains(ones)


def test_sigma_brute_force_oracle_3_3():
    """Independent route: filter all spans {1, v, w} of isotropic vectors."""
    t, d = 3, 3
    ones = np.ones(2 * t, dtype=np.int64)
    vecs = [
        np.array(v, dtype=np.int64)
        for v in itertools.product(range(d), repeat=2 * t)
        if quadratic_Q_vec(np.array(v, dtype=np.int64), d) == 0
    ]
    found = set()
    for v1, v2 in itertools.combinations(vecs, 2):
        cand = Subspace(np.array([ones, v1, v2]), d)
        if cand.dim != t:
            continue
        if all(quadratic_Q_vec(x, d) == 0 for x in cand.vectors()):
            found.add(cand)
    assert found == set(stochastic_lagrangians(t, d))


@pytest.mark.parametrize("t,d,count", [(3, 3, 6), (4, 2, 24), (4, 3, 48)])
def test_orthogonal_group_counts(t, d, count):
    group = orthogonal_stochastic_group(t, d)
    assert len(group) == count
    for O in group[:10]:
        assert is_member_O(O, t, d)


def test_orthogonal_group_6_2_pin():
    assert len(orthogonal_stochastic_group(6, 2)) == 1440


def test_defect_subspaces_are_isotropic():
    for N in defect_subspaces(4, 2, 1):
        D = form_modulus(2)
        for v in N.vectors():
            assert int(v @ v) % D == 0


@pytest.mark.parametrize("t,d", [(3, 3), (4, 2)])
def test_defect_round_trip(t, d):
    for T in stochastic_lagrangians(t, d):
        assert reconstruct(defect_decompose(T)) == T


@pytest.mark.parametrize("t,d", [(3, 3), (4, 2)])
def test_defect_pairs_span_quotient(t, d):
    """One pair per basis vector of M^perp / M, M the right defect."""
    for T in stochastic_lagrangians(t, d):
        data = defect_decompose(T)
        Mperp = data.right.complement(np.eye(t, dtype=np.int64))
        assert len(data.pairs) == Mperp.dim - data.right.dim


def test_r_trace_counts_diagonal_pairs():
    for t, d in [(3, 3), (4, 2)]:
        delta = diagonal_subspace(t, d)
        for T in stochastic_lagrangians(t, d):
            dense = r_matrix(T)
            k = T.intersect(delta).dim
            assert abs(np.trace(dense) - d**k) < 1e-12
            assert R_trace(T, 1) == d**k


def test_r_gram_matches_dense():
    t, d, n = 3, 3, 1
    sigma = stochastic_lagrangians(t, d)
    G = R_gram(sigma, n)
    dense = [R_matrix(T, n) for T in sigma]
    for i in range(len(sigma)):
        for j in range(len(sigma)):
            want = np.trace(dense[i].conj().T @ dense[j]).real
            assert abs(G[i, j] - want) < 1e-9


@pytest.mark.parametrize(
    "t,d,n,rank", [(4, 2, 3, 30), (4, 2, 1, 15), (3, 3, 2, 8), (5, 2, 4, 270), (4, 5, 3, 312)]
)
def test_linear_independence_ranks(t, d, n, rank):
    assert linear_independence_check(t, d, n) == rank


def test_semigroup_exact_identity_sample():
    t, d = 3, 3
    sigma = stochastic_lagrangians(t, d)
    dense = {T: r_matrix(T).astype(np.int64) for T in sigma}
    for T1 in sigma[:4]:
        for T2 in sigma[:4]:
            T12, k = compose(T1, T2)
            prod = dense[T1] @ dense[T2]
            assert np.array_equal(prod, d**k * dense[T12])


def test_compose_with_diagonal_is_identity():
    t, d = 4, 2
    delta = diagonal_subspace(t, d)
    for T in stochastic_lagrangians(t, d)[:6]:
        out, k = compose(delta, T)
        assert out == T and k == 0
        out, k = compose(T, delta)
        assert out == T and k == 0


def test_css_projector_properties():
    ones = Subspace(np.ones((1, 4), dtype=np.int64), 2)
    P = css_projector(ones, 4, 2)
    assert np.abs(P @ P - P).max() < 1e-12
    assert np.abs(P - P.conj().T).max() < 1e-12
    assert abs(np.trace(P).real - 2 ** (4 - 2)) < 1e-9
    r = r_matrix(css_subspace(ones))
    assert np.abs(P - r / 2).max() < 1e-12


def test_css_projector_trivial_and_qutrit():
    z = Subspace.zero(3, 3)
    assert np.abs(css_projector(z, 3, 3) - np.eye(27)).max() < 1e-12
    ones = Subspace(np.ones((1, 3), dtype=np.int64), 3)
    P = css_projector(ones, 3, 3)
    r = r_matrix(css_subspace(ones))
    assert np.abs(P - r / 3).max() < 1e-12


def test_left_right_act_matches_operators():
    t, d = 3, 3
    sigma = stochastic_lagrangians(t, d)
    group = orthogonal_stochastic_group(t, d)
    rng = np.random.default_rng(0)
    ident = np.eye(t, dtype=np.int64)
    for _ in range(6):
        T = sigma[rng.integers(len(sigma))]
        O = group[rng.integers(len(group))]
        Op = group[rng.integers(len(group))]
        lhs = (
            r_matrix(subspace_from_matrix(O, d))
            @ r_matrix(T)
            @ r_matrix(subspace_from_matrix(Op, d))
        )
        rhs = r_matrix(left_right_act(O, T, Op))
        assert np.abs(lhs - rhs).max() < 1e-9
        assert left_right_act(ident, T, ident) == T


def test_permutation_times_diagonal():
    t, d = 3, 3
    delta = diagonal_subspace(t, d)
    pi = permutation_matrix([1, 2, 0])
    Tpi = left_right_act(pi, delta, np.eye(t, dtype=np.int64))
    # T_pi = {(pi x, x)}
    x = np.array([0, 1, 2])
    assert Tpi.contains(np.concatenate([(pi @ x) % d, x]))


@pytest.mark.parametrize(
    "t,d,sizes",
    [(3, 3, [6, 2]), (4, 2, [24, 6]), (4, 3, [48, 32]), (1, 2, [1]), (1, 3, [1])],
)
def test_double_cosets(t, d, sizes):
    cosets = double_cosets(t, d)
    assert sorted((c["size"] for c in cosets), reverse=True) == sorted(
        sizes, reverse=True
    )
    assert len(cosets) <= t
    assert sum(c["size"] for c in cosets) == sigma_count_formula(t, d)
    # invariants constant per coset and distinguishing across cosets
    keys = set()
    for c in cosets:
        ones = np.ones(2 * t, dtype=np.int64)
        invs = {
            (left_defect(m).dim, bool(m.contains(ones))) for m in c["members"]
        }
        assert len(invs) == 1
        keys.add(invs.pop())
    assert len(keys) == len(cosets)


def test_anti_permutation_variants():
    A = anti_permutation(range(6), 6, 2)
    J = np.ones((6, 6), dtype=np.int64)
    assert np.array_equal(A, (J - np.eye(6, dtype=np.int64)) % 2)
    assert np.array_equal(anti_identity_matrix(6), A)
    B = anti_permutation(range(6), 6, 2, balanced=True)
    assert np.array_equal(A, B)
    # odd d: all-2 off-diagonal pattern at (t, d) = (4, 3)
    C = anti_permutation(range(4), 4, 3)
    assert np.array_equal(C, np.where(np.eye(4, dtype=bool), 1, 2))
    assert is_member_O(C, 4, 3)
    with pytest.raises(ValueError):
        anti_permutation(range(3), 3, 3)


def _icosahedron_adjacency():
    A = np.zeros((12, 12), dtype=np.int64)

    def link(a, b):
        A[a, b] = A[b, a] = 1

    for k in range(5):
        u, low = 1 + k, 6 + k
        link(0, u)
        link(11, low)
        link(u, 1 + (k + 1) % 5)
        link(low, 6 + (k + 1) % 5)
        link(u, low)
        link(u, 6 + (k + 1) % 5)
    return A


def test_icosahedron_membership():
    A = _icosahedron_adjacency()
    assert (A.sum(axis=0) == 5).all()
    assert is_member_O(A, 12, 2)
    assert not is_member_O((1 - A) % 2, 12, 2)


def test_is_member_O_permutations():
    for perm in itertools.permutations(range(4)):
        assert is_member_O(permutation_matrix(perm), 4, 2)


def test_commutes_with_clifford_negative_control():
    bad = Subspace(
        np.array(
            [
                [1, 0, 0, 0, 0, 0],
                [0, 1, 0, 1, 0, 0],
                [0, 0, 1, 0, 0, 1],
            ]
        ),
        2,
        6,
    )
    assert not commutes_with_clifford(bad, 1, 2)["passed"]


def test_expectation_R_on_stabilizer_is_one():
    from stabkit.stabilizer import all_stabilizer_states

    t, d, n = 3, 3, 1
    states = all_stabilizer_states(n, d)
    for T in stochastic_lagrangians(t, d)[:4]:
        for psi in states[:4]:
            val = expectation_R(T, psi, n)
            assert abs(val - 1) < 1e-10
