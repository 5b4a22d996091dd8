"""End-to-end acceptance checks for the commutant machinery and protocols.

One test (or parametrized family) per acceptance item, with pinned
tolerances.  Expected values are either exact combinatorial statements or
were derived from independent routes (dense linear algebra, brute-force
enumeration, Monte-Carlo) before being frozen here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from stabkit.commutant import (
    R_matrix,
    anti_identity_matrix,
    commutes_with_clifford,
    compose,
    css_subspace,
    is_member_O,
    left_right_act,
    linear_independence_check,
    permutation_matrix,
    r_matrix,
    sigma_count_formula,
    stochastic_lagrangians,
    subspace_from_matrix,
)
from stabkit.gf import Subspace
from stabkit.moments import (
    find_design_weights,
    minimal_projector,
    mixture_design_gap,
    qutrit_fiducial_angle,
    stab_moment_coefficients,
    stab_moment_operator,
    empirical_stab_moment,
    stab_tensor_rank,
)
from stabkit.phase_space import kron_power_vec
from stabkit.protocols import (
    bell_difference_distribution,
    qubit_accept_probability,
    qudit_accept_probability,
    qudit_soundness_constant,
    robust_hudson_check,
    simulate_algorithm1,
    sum_negativity,
    three_copy_accept_probability,
)
from stabkit.stabilizer import all_stabilizer_states, max_stabilizer_overlap
from stabkit.definetti import (
    exp_definetti_check,
    gram,
    random_span_coefficients,
)

from oracles import anti_identity_operator, design_gap


def _haar_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# 1. cardinality of the enumerated commutant index set
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "d,t",
    [(2, t) for t in range(2, 7)]
    + [(3, t) for t in range(2, 6)]
    + [(5, t) for t in range(2, 5)],
)
def test_01_sigma_cardinality(d, t):
    want = 1
    for k in range(t - 1):
        want *= d**k + 1
    sigma = stochastic_lagrangians(t, d)
    assert len(sigma) == want
    assert sigma_count_formula(t, d) == want


def test_01_sigma_cardinality_pins():
    assert len(stochastic_lagrangians(3, 3)) == 8
    assert len(stochastic_lagrangians(4, 2)) == 30
    assert len(stochastic_lagrangians(4, 3)) == 80
    assert len(stochastic_lagrangians(6, 2)) == 4590


# ---------------------------------------------------------------------------
# 2. the R(T) commute with the Clifford group and are linearly independent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_02_commutant_exhaustive(t, d):
    for T in stochastic_lagrangians(t, d):
        for n in (1, 2):
            rep = commutes_with_clifford(T, n, d)
            assert rep["max_norm"] < 1e-9, (t, d, n)


@pytest.mark.parametrize("t", [5, 6])
def test_02_commutant_sampled(t):
    sigma = stochastic_lagrangians(t, 2)
    rng = np.random.default_rng(t)
    picks = rng.choice(len(sigma), size=200, replace=False)
    for i in picks:
        for n in (1, 2):
            rep = commutes_with_clifford(sigma[i], n, 2)
            assert rep["max_norm"] < 1e-9


@pytest.mark.parametrize("t,d,n", [(4, 2, 3), (3, 3, 2), (4, 3, 3)])
def test_02_linear_independence(t, d, n):
    assert linear_independence_check(t, d, n) == len(stochastic_lagrangians(t, d))


# ---------------------------------------------------------------------------
# 3. the t-th moment of the stabilizer ensemble
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,d,t", [(1, 2, 4), (2, 2, 4), (1, 2, 6), (1, 3, 3), (2, 3, 3), (1, 3, 4)]
)
def test_03_moment_formula(n, d, t):
    M = stab_moment_operator(t, n, d)
    E = empirical_stab_moment(t, n, d)
    assert np.linalg.norm(M - E) < 1e-10


# ---------------------------------------------------------------------------
# 4. design facts: when the stabilizer ensemble is a t-design
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,d,t", [(2, 2, 2), (2, 2, 3), (2, 3, 2)])
def test_04_design_gap_zero(n, d, t):
    gamma = stab_moment_coefficients(t, n, d)
    assert design_gap(gamma, t, n, d) < 1e-10


@pytest.mark.parametrize("n,d,t", [(2, 2, 4), (2, 3, 3)])
def test_04_design_gap_positive(n, d, t):
    gamma = stab_moment_coefficients(t, n, d)
    assert design_gap(gamma, t, n, d) > 1e-6


# ---------------------------------------------------------------------------
# 5. testing protocols accept every stabilizer state (completeness)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_05_completeness_qubit(n):
    for psi in all_stabilizer_states(n, 2):
        assert abs(qubit_accept_probability(psi) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_05_completeness_qudit(n):
    for psi in all_stabilizer_states(n, 3):
        assert abs(qudit_accept_probability(psi, 2, 3) - 1.0) < 1e-12


@pytest.mark.parametrize("d", [5, 7])
def test_05_completeness_three_copy(d):
    for psi in all_stabilizer_states(1, d):
        assert abs(three_copy_accept_probability(psi, d) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# 6. testing protocols reject far states (soundness), zero violations
# ---------------------------------------------------------------------------

def test_06_soundness_qubit():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        psi = _haar_state(2, rng)
        p = qubit_accept_probability(psi)
        _, ov = max_stabilizer_overlap(psi, 1, 2)
        eps2 = 1.0 - ov
        assert p <= 1.0 - eps2 * eps2 / 4.0 + 1e-12


def test_06_soundness_qudit():
    rng = np.random.default_rng(102)
    C = qudit_soundness_constant(3, 2)
    for _ in range(1000):
        psi = _haar_state(3, rng)
        p = qudit_accept_probability(psi, 2, 3)
        _, ov = max_stabilizer_overlap(psi, 1, 3)
        eps2 = 1.0 - ov
        assert p <= 1.0 - C * eps2 * eps2 + 1e-12


def test_06_soundness_three_copy():
    rng = np.random.default_rng(103)
    d = 5
    for _ in range(1000):
        psi = _haar_state(d, rng)
        p = three_copy_accept_probability(psi, d)
        _, ov = max_stabilizer_overlap(psi, 1, d)
        eps2 = 1.0 - ov
        assert p <= 1.0 - eps2 * eps2 / (16 * d * d) + 1e-12


# ---------------------------------------------------------------------------
# 7. Bell difference sampling: dual routes and the Monte-Carlo protocol
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_07_bell_difference_dual_route(n):
    rng = np.random.default_rng(200 + n)
    for _ in range(100):
        # check=True recomputes through the projector route and raises on
        # disagreement beyond 1e-10
        q = bell_difference_distribution(_haar_state(2**n, rng), check=True)
        assert abs(q.sum() - 1.0) < 1e-10


def test_07_monte_carlo_t_state():
    t_plus = np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2)
    rep = simulate_algorithm1(t_plus, shots=100_000, seed=2024)
    sigma = rep.details["sigma"]
    assert abs(rep.p_accept - 13.0 / 16.0) <= 4 * sigma
    assert rep.passed


# ---------------------------------------------------------------------------
# 8. the minimal projector and the span of stabilizer tensor powers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t,n,d", [(4, 1, 2), (6, 1, 2), (3, 1, 3)])
def test_08_minimal_projector(t, n, d):
    P = minimal_projector(t, n, d)
    eig = np.linalg.eigvalsh((P + P.conj().T) / 2)
    rank = int((eig > 0.5).sum())
    assert rank == stab_tensor_rank(t, n, d)
    for s in all_stabilizer_states(n, d):
        v = kron_power_vec(s, t)
        assert np.abs(P @ v - v).max() < 1e-10


# ---------------------------------------------------------------------------
# 9. semigroup structure: r(T1) r(T2) = d^k r(T1 o T2), exactly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t,d", [(3, 3), (4, 2)])
def test_09_semigroup_all_pairs(t, d):
    sigma = stochastic_lagrangians(t, d)
    dense = {T: r_matrix(T).astype(np.int64) for T in sigma}
    for T1 in sigma:
        for T2 in sigma:
            T12, k = compose(T1, T2)
            assert np.array_equal(dense[T1] @ dense[T2], d**k * dense[T12])


def test_09_semigroup_associativity():
    t, d = 3, 3
    sigma = stochastic_lagrangians(t, d)
    for T1 in sigma:
        for T2 in sigma:
            for T3 in sigma:
                T12, k12 = compose(T1, T2)
                T23, k23 = compose(T2, T3)
                left, kl = compose(T12, T3)
                right, kr = compose(T1, T23)
                assert left == right
                assert k12 + kl == k23 + kr


# ---------------------------------------------------------------------------
# 10. robust Hudson: negativity bounds the distance to stabilizer states
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(3, 1), (3, 2), (5, 1)])
def test_10_robust_hudson(d, n):
    rng = np.random.default_rng(300 + 10 * d + n)
    for _ in range(1000):
        rep = robust_hudson_check(_haar_state(d**n, rng), d)
        assert rep.passed


def test_10_exact_hudson_degenerate_case():
    # zero negativity on the enumerated ensemble implies a perfect overlap
    for d in (3, 5):
        for psi in all_stabilizer_states(1, d):
            assert sum_negativity(psi, d) < 1e-12
            _, ov = max_stabilizer_overlap(psi, 1, d)
            assert abs(ov - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# 11. Gram lemma and the exponential de Finetti reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [20, 24, 30])
def test_11_gram_lemma(t):
    data = gram(1, 2, t)
    # claim 1: eps takes its closed-form value
    assert abs(data.eps - 2.0 ** ((9 - t) / 2.0)) < 1e-15
    # claim 2: the Gram matrix is eps-close to the identity entrywise
    assert np.abs(data.G - np.eye(data.num_states)).max() <= data.eps
    # claim 3: the frame spectrum lies in [1 - 2 eps, 1 + 2 eps]
    eig = np.linalg.eigvalsh(data.G)
    assert eig.min() >= 1 - 2 * data.eps
    assert eig.max() <= 1 + 2 * data.eps


@pytest.mark.parametrize("t", [20, 24])
@pytest.mark.parametrize("s", [1, 2])
def test_11_exp_definetti(t, s):
    alpha = random_span_coefficients(gram(1, 2, t), seed=1000 + t + s)
    rep = exp_definetti_check(alpha, s, t=t, n=1, d=2)
    assert rep["distance"] <= rep["bound"]
    assert rep["passed"]


def test_11_exp_definetti_decay_slope():
    ts = [20, 22, 24, 26, 28]
    dists = []
    for t in ts:
        alpha = random_span_coefficients(gram(1, 2, t), seed=100)
        dists.append(exp_definetti_check(alpha, 1, t=t, n=1, d=2)["distance"])
    slope = np.polyfit(ts, np.log(dists), 1)[0]
    # target -0.5 ln 2 = -0.3466, tolerance 0.05
    assert slope <= -0.34 + 0.05


# ---------------------------------------------------------------------------
# 12. weighted Clifford-orbit designs
# ---------------------------------------------------------------------------

def test_12_qutrit_orbit_design_two_fiducials():
    d, t, n = 3, 3, 2
    theta = qutrit_fiducial_angle(n)
    single = np.array([np.cos(theta), -np.sin(theta), 0.0])
    fiducials = [kron_power_vec(single, n), all_stabilizer_states(n, d)[0]]
    w = find_design_weights(fiducials, t, n, d)
    assert int((w > 0).sum()) <= 2
    assert mixture_design_gap(fiducials, w, t, n, d) < 1e-8


def test_12_qubit_orbit_design_three_fiducials():
    d, t, n = 2, 4, 3
    rng = np.random.default_rng(0)
    t_state = np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2)
    fiducials = [
        all_stabilizer_states(n, d)[0],
        kron_power_vec(t_state, n),
        _haar_state(d**n, rng),
    ]
    w = find_design_weights(fiducials, t, n, d)
    assert int((w > 0).sum()) <= 3
    assert mixture_design_gap(fiducials, w, t, n, d) < 1e-8


def test_12_qutrit_fiducial_orbit_gap_n2():
    n = 2
    theta = qutrit_fiducial_angle(n)
    single = np.array([np.cos(theta), -np.sin(theta), 0.0])
    fid = kron_power_vec(single, n)
    assert mixture_design_gap([fid], [1.0], 3, n, 3) < 1e-8


# ---------------------------------------------------------------------------
# 13. structure spot checks
# ---------------------------------------------------------------------------

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


def test_13_icosahedron_membership():
    A = _icosahedron_adjacency()
    assert is_member_O(A, 12, 2)
    assert not is_member_O((1 - A) % 2, 12, 2)


@pytest.mark.parametrize("n", [1, 2])
def test_13_anti_identity_operator(n):
    V = anti_identity_operator(n)
    R = R_matrix(subspace_from_matrix(anti_identity_matrix(6), 2), n)
    dim = V.shape[0]
    worst = 0.0
    for c in range(0, dim, 512):
        block = V[:, c : c + 512] - R[:, c : c + 512]
        worst = max(worst, np.abs(block).max())
    assert worst < 1e-10


def test_13_qutrit_irrep_dimensions():
    n, d = 2, 3
    N = Subspace(np.ones((1, 3), dtype=np.int64), d)
    T = css_subspace(N)
    T12 = left_right_act(
        permutation_matrix((1, 0, 2)), T, np.eye(3, dtype=np.int64)
    )
    R1 = R_matrix(T, n)
    R2 = R_matrix(T12, n)
    for sign, want in [(1, (3**n + 1) // 2), (-1, (3**n - 1) // 2)]:
        P = (R1 + sign * R2) / (2 * 3**n)
        assert np.abs(P @ P - P).max() < 1e-10
        assert round(np.trace(P).real) == want
