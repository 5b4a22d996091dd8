"""Stabilizer-testing protocols, uncertainty lemmas, robust Hudson."""

from __future__ import annotations

import numpy as np
import pytest

from stabkit.clifford import fourier_gate, phase_gate
from stabkit.protocols import (
    bell_difference_distribution,
    choi_state,
    clifford_test,
    mana,
    max_mixed_state_check,
    qubit_accept_probability,
    qudit_accept_probability,
    qudit_soundness_constant,
    robust_hudson_check,
    simulate_algorithm1,
    sum_negativity,
    three_copy_accept_probability,
    uncertainty_points,
    uncertainty_weyl,
    wigner_norm,
)
from stabkit.phase_space import kron_power_vec, phase_points, wigner_state
from stabkit.stabilizer import all_stabilizer_states

import oracles
from oracles import (
    anti_identity_operator,
    point_operators,
    qubit_accept_operator_route,
    three_copy_operator,
    v_s_operator,
    v_s_permutation_action,
)


def _haar_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


T_PLUS = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)


def test_t_state_accept_probability_pin():
    assert abs(qubit_accept_probability(T_PLUS) - 13.0 / 16.0) < 1e-12
    assert abs(qubit_accept_operator_route(T_PLUS) - 13.0 / 16.0) < 1e-12


def test_stabilizer_states_accept_with_probability_one():
    for n in (1, 2):
        for psi in all_stabilizer_states(n, 2):
            assert abs(qubit_accept_probability(psi) - 1.0) < 1e-12


def test_operator_route_matches_moment_route():
    rng = np.random.default_rng(7)
    for n in (1, 2):
        for _ in range(5):
            psi = _haar_state(2**n, rng)
            a = qubit_accept_probability(psi)
            b = qubit_accept_operator_route(psi)
            assert abs(a - b) < 1e-12


def test_bell_difference_distribution_routes():
    rng = np.random.default_rng(3)
    for n in (1, 2):
        for _ in range(5):
            q = bell_difference_distribution(_haar_state(2**n, rng))
            assert abs(q.sum() - 1.0) < 1e-10
            assert q.min() > -1e-12


def test_bell_sampling_identity_real_state():
    # for real-amplitude states q(0) relates to sum p^2 of the char dist
    from stabkit.phase_space import char_distribution

    rng = np.random.default_rng(5)
    v = rng.normal(size=4)
    psi = v / np.linalg.norm(v)
    q = bell_difference_distribution(psi)
    p = char_distribution(psi, 2, 2)
    assert abs(q[0] - (p**2).sum() * 1.0) < 1e-10 or q[0] >= (p**2).sum() - 1e-10


def test_soundness_bound_and_fidelity_lower_bound():
    rng = np.random.default_rng(11)
    from stabkit.stabilizer import max_stabilizer_overlap

    for _ in range(50):
        psi = _haar_state(2, rng)
        p = qubit_accept_probability(psi)
        _, ov = max_stabilizer_overlap(psi, 1, 2)
        eps = 1.0 - ov
        assert p <= 1.0 - eps * eps / 4.0 + 1e-10
        assert ov >= 4.0 * p - 3.0 - 1e-10


def test_technical_inequality():
    # (4p - 3)^k >= 4 p^k - 3 for p in [3/4, 1]
    ps = np.linspace(0.75, 1.0, 101)
    for k in range(1, 21):
        lhs = (4 * ps - 3) ** k
        rhs = 4 * ps**k - 3
        assert (lhs >= rhs - 1e-12).all()


def test_anti_identity_operator_small():
    V = anti_identity_operator(1)
    assert np.abs(V - V.conj().T).max() < 1e-12
    assert np.abs(V @ V - np.eye(64)).max() < 1e-10


def test_simulate_algorithm1_deterministic():
    r1 = simulate_algorithm1(T_PLUS, shots=5000, seed=42)
    r2 = simulate_algorithm1(T_PLUS, shots=5000, seed=42)
    assert r1.p_accept == r2.p_accept
    assert r1.passed
    assert abs(r1.p_accept - 13.0 / 16.0) < 4 * r1.details["sigma"] + 1e-9


def test_simulate_algorithm1_rejects_bad_shots():
    with pytest.raises(ValueError):
        simulate_algorithm1(T_PLUS, shots=0, seed=1)


def test_qudit_accept_probability_reduces_to_qubit():
    rng = np.random.default_rng(13)
    psi = _haar_state(2, rng)
    # s = 3 on qubits matches the six-copy formula
    assert abs(qudit_accept_probability(psi, 3, 2) - qubit_accept_probability(psi)) < 1e-12
    with pytest.raises(ValueError):
        qudit_accept_probability(psi, 2, 2)


def test_qudit_stabilizer_states_accept():
    for psi in all_stabilizer_states(1, 3):
        assert abs(qudit_accept_probability(psi, 2, 3) - 1.0) < 1e-12


def test_qudit_soundness_sweep():
    rng = np.random.default_rng(17)
    from stabkit.stabilizer import max_stabilizer_overlap

    for d, s in [(3, 2), (5, 2), (5, 3)]:
        C = qudit_soundness_constant(d, s)
        assert 0 < C < 0.5
        for _ in range(30):
            psi = _haar_state(d, rng)
            p = qudit_accept_probability(psi, s, d)
            _, ov = max_stabilizer_overlap(psi, 1, d)
            eps = 1.0 - ov
            assert p <= 1.0 - C * eps * eps + 1e-10


def test_v_s_routes_agree():
    for s, d in [(3, 2), (5, 2), (3, 4)]:
        V = v_s_operator(s, 1, d)
        P = v_s_permutation_action(s, 1, d)
        assert np.abs(V - P).max() < 1e-12
        assert np.abs(V - V.conj().T).max() < 1e-12


def test_v_2_qubit_not_unitary():
    V = v_s_operator(2, 1, 2)
    assert np.abs(V - V.conj().T).max() < 1e-12
    assert np.abs(V @ V.conj().T - np.eye(16)).max() > 0.5


def test_v_s_unitary_when_invertible():
    V = v_s_operator(2, 1, 3)
    assert np.abs(V @ V.conj().T - np.eye(81)).max() < 1e-10


def test_three_copy_routes_and_involution():
    d = 5
    rng = np.random.default_rng(19)
    psi = _haar_state(d, rng)
    p = three_copy_accept_probability(psi, d)
    V = three_copy_operator(1, d)
    v3 = kron_power_vec(psi, 3)
    assert abs(p - 0.5 * (1.0 + (v3.conj() @ V @ v3).real)) < 1e-10
    assert np.abs(V @ V - np.eye(d**3)).max() < 1e-9
    with pytest.raises(ValueError):
        three_copy_accept_probability(psi, 3)


def test_three_copy_stabilizers_accept():
    for psi in all_stabilizer_states(1, 5):
        assert abs(three_copy_accept_probability(psi, 5) - 1.0) < 1e-10


def test_uncertainty_weyl_never_violated():
    rng = np.random.default_rng(23)
    n, d = 1, 3
    pts = [np.array(v) for v in [(1, 0), (0, 1), (1, 1), (2, 1)]]
    for _ in range(200):
        psi = _haar_state(d, rng)
        for x in pts:
            for y in pts:
                assert not uncertainty_weyl(psi, x, y, n, d)["violated"]


def test_uncertainty_weyl_premise_attainable():
    # |0> has a sharp Z expectation
    psi = np.array([1.0, 0.0, 0.0])
    rep = uncertainty_weyl(psi, np.array([1, 0]), np.array([2, 0]), 1, 3)
    assert rep["premise"] and rep["commute"] and not rep["violated"]


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (1, 5), (2, 3)])
def test_uncertainty_weyl_expectations_match_dense_weyl(n, d):
    rng = np.random.default_rng(37)
    pts = phase_points(n, d)
    for _ in range(5):
        psi = _haar_state(d**n, rng)
        x, y = pts[rng.integers(len(pts), size=2)]
        got = uncertainty_weyl(psi, x, y, n, d)["expectations"]
        want = [abs(psi.conj() @ oracles.weyl(v, n, d) @ psi) ** 2 for v in (x, y)]
        assert np.abs(np.array(got) - want).max() < 1e-12


def test_uncertainty_points_never_violated():
    rng = np.random.default_rng(29)
    n, d = 1, 3
    pts = [np.array(v) for v in [(0, 0), (1, 0), (0, 1), (1, 1)]]
    for _ in range(200):
        psi = _haar_state(d, rng)
        for x in pts:
            for y in pts:
                for z in pts:
                    assert not uncertainty_points(psi, x, y, z, n, d)["violated"]


def test_sum_negativity_zero_on_stabilizers():
    for psi in all_stabilizer_states(1, 3):
        assert sum_negativity(psi, 3) < 1e-12
        assert mana(psi, 3) < 1e-12
        assert abs(wigner_norm(psi, 3) - 1.0) < 1e-10


def test_sum_negativity_positive_on_magic_state():
    # the strange state: negative eigenstate of the origin point operator
    A0 = point_operators(1, 3)[0]
    vals, vecs = np.linalg.eigh(A0)
    psi = vecs[:, 0]
    assert vals[0] < 0
    assert sum_negativity(psi, 3) > 0.1
    assert mana(psi, 3) > 0.1


def test_robust_hudson_sweep():
    rng = np.random.default_rng(31)
    stabs = all_stabilizer_states(1, 3)
    for _ in range(30):
        # random perturbations of stabilizer states stay within the bound
        base = stabs[rng.integers(len(stabs))]
        noise = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = base + 0.2 * noise
        psi = psi / np.linalg.norm(psi)
        rep = robust_hudson_check(psi, 3)
        assert rep.passed
    for _ in range(30):
        assert robust_hudson_check(_haar_state(3, rng), 3).passed


def test_robust_hudson_at_four_qutrits(monkeypatch):
    # the state list (a side of 24548) is refused here; the fidelity tables
    # of the 91840 Lagrangians (a side of 2728) are not
    monkeypatch.delenv("STABKIT_DIM_CAP", raising=False)
    rep = robust_hudson_check(_haar_state(81, np.random.default_rng(4)), 3)
    assert rep.n == 4 and rep.passed and rep.details["holder_ok"]
    assert 0.0 < rep.max_overlap < 1.0


def test_max_mixed_state_check():
    rng = np.random.default_rng(37)
    for d in (2, 3):
        for _ in range(20):
            assert max_mixed_state_check(_haar_state(d, rng), d)


def test_clifford_test_gates():
    H = fourier_gate(2)
    rep = clifford_test(H)
    assert rep.details["is_clifford"]
    assert abs(rep.p_accept - 1.0) < 1e-12
    T = np.diag([1.0, np.exp(1j * np.pi / 4)])
    rep = clifford_test(T)
    assert not rep.details["is_clifford"]
    assert abs(rep.p_accept - 13.0 / 16.0) < 1e-12
    cnot = np.eye(4)[[0, 1, 3, 2]]
    assert clifford_test(cnot).details["is_clifford"]
    assert clifford_test(phase_gate(2)).details["is_clifford"]


def test_choi_state_normalized():
    with pytest.raises(ValueError):
        choi_state(np.diag([1.0, 2.0]))
    v = choi_state(fourier_gate(2))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_report_json_round_trip():
    import json

    rep = robust_hudson_check(np.array([1.0, 0.0, 0.0]), 3)
    data = json.loads(json.dumps(rep.to_json()))
    assert data["protocol"] == "robust-hudson"
    assert data["passed"] is True


@pytest.mark.parametrize(
    "call,d",
    [
        pytest.param(lambda psi: wigner_state(psi, 2, 3), 3, id="wigner_state"),
        pytest.param(lambda psi: three_copy_accept_probability(psi, 5), 5, id="three_copy"),
        pytest.param(lambda psi: sum_negativity(psi, 3), 3, id="sum_negativity"),
        pytest.param(lambda psi: wigner_norm(psi, 3), 3, id="wigner_norm"),
        pytest.param(lambda psi: mana(psi, 3), 3, id="mana"),
        pytest.param(lambda psi: robust_hudson_check(psi, 3), 3, id="robust_hudson"),
        pytest.param(
            lambda psi: uncertainty_points(psi, [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], 2, 3),
            3,
            id="uncertainty_points",
        ),
    ],
)
def test_wigner_quantities_refuse_unnormalized_states(call, d):
    """2|00> has norm 2: every route through w_psi refuses it, as char_distribution does."""
    psi = np.zeros(d * d, dtype=complex)
    psi[0] = 2.0
    with pytest.raises(ValueError, match="not normalized"):
        call(psi)
    psi[0] = 1.0
    call(psi)
