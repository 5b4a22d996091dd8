"""De Finetti twirls and partial traces against the earlier routes.

The oracles below are the earlier implementations: the permutation twirl
as a mean over S_t classes labelled by symbol counts (strings for pure
inputs, per-position symbol pairs for mixed ones), the anti-identity by
alternating projections between that twirl and the average with the
anti-identity, the "full" twirl as a sum over every element of O_t(d),
and partial traces by an einsum spec built from letters and by a loop of
`np.trace` calls.  The library averages the input over the orbits of
basis indices (or index pairs) under a generating set, and has one
`_partial_trace`.

scipy.optimize is the oracle of the numpy solvers: `scipy.optimize.nnls`
of `_nnls`, `linprog` of the feasibility of `find_design_weights`, and
`brentq` of the bisection in `qutrit_fiducial_angle`.  The design
constraints, weights and gaps over all of Sigma through the full Gram
matrix (`oracles`) are the oracle of the class-space design route.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, linprog, nnls

import stabkit.definetti as df
from stabkit.commutant import anti_identity_matrix, orthogonal_stochastic_group, permutation_matrix
from stabkit.definetti import (
    _partial_trace,
    _stab_mixture,
    anti_definetti_check,
    exp_definetti_check,
    gram,
    make_invariant_state,
    purify,
    random_span_coefficients,
    reduced_from_coefficients,
    stab_power_decompose,
    trace_distance,
)
from stabkit.cli import _design_fiducials, _haar_state
from stabkit.commutant import css_subspace, r_matrix
from stabkit.gf import Subspace, all_vectors
from stabkit.moments import (
    InfeasibleDesign,
    find_design_weights,
    mixture_design_gap,
    qutrit_fiducial_angle,
)
from stabkit.phase_space import kron_power_rows, kron_power_vec, linear_index_map
from stabkit.stabilizer import all_stabilizer_states

import oracles


# --- oracles ----------------------------------------------------------------

def _pair_labels(t, q):
    """S_t-orbit label of every index pair: counts of per-position symbol pairs."""
    X = all_vectors(t, q)
    m = len(X)
    label = np.zeros((m, m), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            if a == q - 1 and b == q - 1:
                continue  # counts of the last type are determined
            Ia = (X == a).astype(np.int64)
            Ib = (X == b).astype(np.int64)
            label = label * (t + 1) + Ia @ Ib.T
    _, compact = np.unique(label, return_inverse=True)
    return compact.reshape(m, m)


def _string_labels(t, q):
    """S_t-orbit label of every length-t string over Z_q (symbol counts)."""
    X = all_vectors(t, q)
    label = np.zeros(len(X), dtype=np.int64)
    for a in range(q - 1):
        label = label * (t + 1) + (X == a).sum(axis=1)
    _, compact = np.unique(label, return_inverse=True)
    return compact


def _class_mean(x, labels):
    flat = labels.reshape(-1)
    counts = np.bincount(flat)
    re = np.bincount(flat, weights=x.real.reshape(-1)) / counts
    im = np.bincount(flat, weights=x.imag.reshape(-1)) / counts
    return (re + 1j * im)[labels]


def _embedded_anti(t):
    out = np.eye(t, dtype=np.int64)
    out[:6, :6] = anti_identity_matrix(6)
    return out


def _twirl_oracle(t, n, d, symmetry, seed, pure=True):
    """The earlier make_invariant_state: class means, projections, group sums."""
    dim = d ** (t * n)
    rng = np.random.default_rng(seed)
    perms = aperm = None
    if symmetry == "full":
        perms = [linear_index_map(O, t, n, d) for O in orthogonal_stochastic_group(t, d)]
    elif symmetry == "perm+anti":
        aperm = linear_index_map(_embedded_anti(t), t, n, d)
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if perms is not None:
            w = np.zeros_like(v)
            for perm in perms:
                w += v[perm]
            v = w / len(perms)
        else:
            labels = _string_labels(t, d**n)
            v = _class_mean(v, labels)
            if aperm is not None:
                for _ in range(500):
                    nxt = _class_mean(0.5 * (v + v[aperm]), labels)
                    delta = np.abs(nxt - v).max()
                    v = nxt
                    if delta < 1e-15:
                        break
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())
    k = min(dim, 16)
    A = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    rho = A @ A.conj().T
    rho /= np.trace(rho).real
    if perms is not None:
        out = np.zeros_like(rho)
        for perm in perms:
            out += rho[np.ix_(perm, perm)]
        rho = out / len(perms)
    else:
        labels = _pair_labels(t, d**n)
        rho = _class_mean(rho, labels)
        if aperm is not None:
            for _ in range(500):
                nxt = _class_mean(0.5 * (rho + rho[np.ix_(aperm, aperm)]), labels)
                delta = np.abs(nxt - rho).max()
                rho = nxt
                if delta < 1e-15:
                    break
    return rho / np.trace(rho).real


def _trace_ancillas(block, s, dim):
    """Partial trace over the ancilla of each of s (system, ancilla) copies."""
    letters = "abcdefghijklmnopqrstuvwx"
    row, col, out_row, out_col = [], [], [], []
    for k in range(s):
        sys_r, anc = letters[2 * k], letters[2 * k + 1]
        sys_c = letters[2 * s + 2 * k]
        row += [sys_r, anc]
        col += [sys_c, anc]
        out_row.append(sys_r)
        out_col.append(sys_c)
    spec = "".join(row) + "".join(col) + "->" + "".join(out_row) + "".join(out_col)
    return np.einsum(spec, block.reshape((dim,) * (4 * s))).reshape(dim**s, dim**s)


def _trace_last_copies(state, t, s, block):
    """Partial trace over the last t - s of t copies, one np.trace at a time."""
    rho = state.reshape((block,) * (2 * t))
    for _ in range(t - s):
        rho = np.trace(rho, axis1=rho.ndim // 2 - 1, axis2=rho.ndim - 1)
    return rho.reshape(block**s, block**s)


def _exp_distance_oracle(rho, s, t, n, d):
    """Mixed dense route of exp_definetti_check with the letter-spec trace."""
    psi = purify(rho)
    order = [k // 2 if k % 2 == 0 else t + k // 2 for k in range(2 * t)]
    psi = psi.reshape((d**n,) * (2 * t)).transpose(order).reshape(-1)
    data = gram(2 * n, d, t)
    alpha, _ = stab_power_decompose(psi, data)
    return _exp_coefficient_distance(alpha, s, data, d**n)


def _exp_coefficient_distance(alpha, s, data, block):
    norm2 = float((alpha.conj() @ data.G @ alpha).real)
    p = np.abs(alpha) ** 2
    rho_s = reduced_from_coefficients(alpha / math.sqrt(norm2), s, data)
    sigma = _stab_mixture(p / p.sum(), s, data)
    return trace_distance(_trace_ancillas(rho_s, s, block), _trace_ancillas(sigma, s, block))


def _anti_distance_oracle(state, t, s, n):
    rho = _trace_last_copies(state, t, s, 2**n)
    data = gram(n, 2, t)
    V = kron_power_rows(data.states, s)
    basis = (V[:, :, None] * V.conj()[:, None, :]).reshape(len(V), -1)
    A = np.vstack([basis.real.T, basis.imag.T])
    b = np.concatenate([rho.reshape(-1).real, rho.reshape(-1).imag])
    p, _ = nnls(A, b)
    return trace_distance(rho, _stab_mixture(p / p.sum(), s, data))


# --- twirls -------------------------------------------------------------------

CASES = [
    (t, n, d, symmetry, pure)
    for t, n, d in [(6, 1, 2), (4, 1, 3), (3, 2, 2)]
    for symmetry in ("full", "perm", "perm+anti")
    for pure in (True, False)
    if symmetry != "perm+anti" or (d == 2 and t % 6 == 0)
] + [(12, 1, 2, "perm+anti", True)]


@pytest.mark.parametrize("t,n,d,symmetry,pure", CASES)
def test_twirl_matches_earlier_routes(t, n, d, symmetry, pure):
    seed = 7 * t + n + d
    got = make_invariant_state(t, n, d, symmetry, seed, pure=pure).state
    assert np.abs(got - _twirl_oracle(t, n, d, symmetry, seed, pure)).max() < 1e-12


@pytest.mark.parametrize("symmetry,pure", [("full", True), ("full", False), ("perm", True), ("perm+anti", False)])
def test_twirl_is_fixed_by_every_group_element(symmetry, pure):
    t, n, d = 6, 1, 2
    rho = make_invariant_state(t, n, d, symmetry, 11, pure=pure).state
    group = {
        "full": orthogonal_stochastic_group(t, d),
        "perm": [permutation_matrix(np.random.default_rng(k).permutation(t)) for k in range(20)],
        "perm+anti": [_embedded_anti(t), permutation_matrix([5, 0, 3, 1, 2, 4])],
    }[symmetry]
    for O in group:
        perm = linear_index_map(O, t, n, d)
        assert np.abs(rho[np.ix_(perm, perm)] - rho).max() < 1e-12


@pytest.mark.parametrize("pure", [True, False])
def test_twirl_refuses_a_state_a_generator_moves(monkeypatch, pure):
    # with every item its own class the average leaves the random input as it is
    monkeypatch.setattr(df, "orbits", lambda images: list(np.arange(np.shape(images)[1])[:, None]))
    with pytest.raises(AssertionError):
        make_invariant_state(6, 1, 2, "perm+anti", 0, pure=pure)


@pytest.mark.parametrize("symmetry", ["perm", "perm+anti", "full"])
@pytest.mark.parametrize("pure", [True, False])
def test_twirl_refuses_fewer_than_two_copies(symmetry, pure):
    with pytest.raises(ValueError):
        make_invariant_state(1, 1, 2, symmetry, 0, pure=pure)


# --- partial traces and distances ------------------------------------------

@pytest.mark.parametrize("s,block", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_partial_trace_matches_letter_spec(s, block):
    rng = np.random.default_rng(s * 10 + block)
    size = block ** (2 * s)
    M = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    got = _partial_trace(M, (block,) * (2 * s), range(0, 2 * s, 2))
    assert np.abs(got - _trace_ancillas(M, s, block)).max() < 1e-12


@pytest.mark.parametrize("t,s,block", [(2, 1, 2), (4, 2, 2), (6, 3, 2), (3, 1, 3), (3, 2, 4), (5, 0, 2), (3, 3, 2)])
def test_partial_trace_matches_trace_loop(t, s, block):
    rng = np.random.default_rng(t * 100 + s * 10 + block)
    size = block**t
    M = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    got = _partial_trace(M, (block,) * t, range(s))
    assert np.abs(got - _trace_last_copies(M, t, s, block)).max() < 1e-12


def test_partial_trace_of_a_product_with_unequal_factors():
    rng = np.random.default_rng(3)
    a, b, c = (rng.normal(size=(k, k)) for k in (2, 3, 4))
    rho = np.kron(np.kron(a, b), c)
    got = _partial_trace(rho, (2, 3, 4), [0, 2])
    assert np.abs(got - np.trace(b) * np.kron(a, c)).max() < 1e-12


@pytest.mark.parametrize("t,seed", [(6, 1), (6, 5)])
def test_exp_definetti_mixed_distance_matches_earlier_route(t, seed):
    src = make_invariant_state(t, 1, 2, "full", seed, pure=False)
    rep = exp_definetti_check(src, 1)
    assert rep["mixed"]
    oracle = _exp_distance_oracle(_twirl_oracle(t, 1, 2, "full", seed, pure=False), 1, t, 1, 2)
    assert abs(rep["distance"] - oracle) < 1e-12


@pytest.mark.parametrize("t,s", [(20, 1), (20, 2)])
def test_exp_definetti_mixed_coefficient_distance_matches_earlier_route(t, s):
    data = gram(2, 2, t)
    alpha = random_span_coefficients(data, seed=t + s)
    rep = exp_definetti_check(alpha, s, t=t, n=1, d=2, mixed=True)
    assert abs(rep["distance"] - _exp_coefficient_distance(alpha, s, data, 2)) < 1e-12


@pytest.mark.parametrize("t,seed,pure", [(6, 2, True), (6, 2, False), (12, 3, True)])
def test_anti_definetti_distance_matches_earlier_route(t, seed, pure):
    src = make_invariant_state(t, 1, 2, "perm+anti", seed, pure=pure)
    rep = anti_definetti_check(src, 6)
    oracle = _anti_distance_oracle(_twirl_oracle(t, 1, 2, "perm+anti", seed, pure), t, 6, 1)
    assert abs(rep["distance"] - oracle) < 1e-12
    purity = np.sum(src.state * src.state.T).real  # tr rho^2
    assert rep["bound"] == df.anti_bound(1, t, 6, mixed=purity < 1.0 - 1e-9)


# --- NNLS, design weights and the fiducial angle against scipy.optimize ----

def _nnls_case(kind, m, k, seed):
    """A (A, b) pair of one kind: tall, wide, rank-deficient, b in the cone
    of the columns, or b with A^T b < 0 (so p = 0 is optimal)."""
    rng = np.random.default_rng(seed)
    if kind == "tall":
        m = max(m, k + 1)
    elif kind == "wide":
        k = max(k, m + 1)
    A = rng.normal(size=(m, k))
    if kind == "rank-deficient":
        r = max(1, min(m, k) - 2)
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, k))
    b = rng.normal(size=m)
    if kind == "cone":
        b = A @ (np.abs(rng.normal(size=k)) * (rng.random(k) < 0.6))
    elif kind == "negative-gradient":
        A = np.abs(A)
        b = -np.abs(b) - 0.1
    return A, b


_NNLS_KINDS = ["tall", "wide", "rank-deficient", "cone", "negative-gradient"]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_NNLS_KINDS),
    st.integers(1, 24),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
def test_nnls_matches_scipy(kind, m, k, seed):
    A, b = _nnls_case(kind, m, k, seed)
    p = df._nnls(A, b)
    q, _ = nnls(A, b)
    assert p.shape == (A.shape[1],) and (p >= 0).all()
    # KKT: the gradient A^T (b - A x) is <= 0 off the support and 0 on it
    tol = 1e-9 * np.linalg.norm(A) * np.linalg.norm(b)
    w = A.T @ (b - A @ p)
    assert (w[p == 0] <= tol).all()
    assert np.abs(w[p > 0]).max(initial=0.0) <= tol
    # on about one exactly rank-deficient A in a thousand scipy returns
    # entries near 1e14 whose residual is rounding noise: compare the
    # objectives where the oracle meets the KKT conditions
    wq = A.T @ (b - A @ q)
    oracle_ok = (wq[q == 0] <= tol).all() and np.abs(wq[q > 0]).max(initial=0.0) <= tol
    assert oracle_ok or kind == "rank-deficient"
    if oracle_ok:
        f, g = np.sum((A @ p - b) ** 2), np.sum((A @ q - b) ** 2)
        # relative to |b|^2 where the optimum is (numerically) zero
        assert abs(f - g) <= 1e-10 * max(g, 1e-6 * (b @ b))
    # basic solution: independent columns on the support
    support = A[:, p > 0]
    assert np.linalg.matrix_rank(support) == support.shape[1]
    if kind == "negative-gradient":
        assert not p.any()


@pytest.mark.parametrize("kind", [k for k in _NNLS_KINDS if k != "wide"])
def test_nnls_matches_scipy_on_the_anti_identity_shape(kind):
    # the anti-identity fit at n = 1: 2 * 64^2 rows, 6 columns
    A, b = _nnls_case(kind, 8192, 6, 17)
    p, q = df._nnls(A, b), nnls(A, b)[0]
    f, g = np.sum((A @ p - b) ** 2), np.sum((A @ q - b) ** 2)
    assert abs(f - g) <= 1e-10 * max(g, 1e-6 * (b @ b))


def _fiducial(n):
    theta = qutrit_fiducial_angle(n)
    return kron_power_vec(np.array([np.cos(theta), -np.sin(theta), 0.0]), n)


def _haar_fiducials(d, n, seed):
    """Eight Haar fiducials for this seed: the set of `stabkit design`
    except for qutrit 3-designs and for qubits at t >= 4."""
    rng = np.random.default_rng(seed)
    return [_haar_state(rng, d**n) for _ in range(8)]


def _t_state_fiducials():
    rng = np.random.default_rng(0)
    t_state = np.array([1.0, np.exp(1j * np.pi / 4)]) / math.sqrt(2)
    return [all_stabilizer_states(3, 2)[0], kron_power_vec(t_state, 3), _haar_state(rng, 8)]


# (fiducials, t, n, d, feasible): the design cases of the tests and the CLI
DESIGN_CASES = {
    "qutrit-n1": (lambda: [_fiducial(1), all_stabilizer_states(1, 3)[0]], 3, 1, 3, True),
    "qutrit-n2": (lambda: [_fiducial(2), all_stabilizer_states(2, 3)[0]], 3, 2, 3, True),
    "qutrit-cli": (lambda: [_fiducial(1)], 3, 1, 3, True),
    "qubit-t-state": (_t_state_fiducials, 4, 3, 2, True),
    "stabilizer-only": (lambda: [all_stabilizer_states(1, 2)[0]], 4, 1, 2, False),
    "haar-t4-n1-d2": (lambda: _haar_fiducials(2, 1, 0), 4, 1, 2, True),
    "haar-t3-n2-d2": (lambda: _haar_fiducials(2, 2, 0), 3, 2, 2, True),
    "haar-t4-n1-d3": (lambda: _haar_fiducials(3, 1, 0), 4, 1, 3, False),
    "cli-qubit-t4-n3": (lambda: _design_fiducials(4, 3, 2, 0), 4, 3, 2, True),
    "cli-qubit-t5-n2": (lambda: _design_fiducials(5, 2, 2, 0), 5, 2, 2, True),
}


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_design_feasibility_matches_linprog(case):
    make, t, n, d, feasible = DESIGN_CASES[case]
    fiducials = make()
    A_eq, b_eq = oracles.design_constraints(fiducials, t, n, d)
    K = len(fiducials)
    res = linprog(np.zeros(K), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * K)
    assert res.success == feasible
    if feasible:
        p = find_design_weights(fiducials, t, n, d)
        assert (p >= 0).all() and abs(p.sum() - 1.0) < 1e-12
        assert np.linalg.norm(A_eq @ p - b_eq) < 1e-9
        assert int((p > 0).sum()) <= len(b_eq)
    else:
        with pytest.raises(InfeasibleDesign) as info:
            find_design_weights(fiducials, t, n, d)
        assert info.value.residual > 1e-9
        assert info.value.residual == pytest.approx(nnls(A_eq, b_eq)[1], rel=1e-8)


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_class_space_design_matches_full_sigma(case):
    """Weights, gaps and infeasibility residuals in class space against the
    same quantities over all of Sigma through the full Gram matrix."""
    make, t, n, d, feasible = DESIGN_CASES[case]
    fiducials = make()
    uniform = np.full(len(fiducials), 1.0 / len(fiducials))
    weights = [uniform]
    if feasible:
        p = find_design_weights(fiducials, t, n, d)
        assert np.abs(p - oracles.find_design_weights(fiducials, t, n, d)).max() < 1e-12
        weights.append(p)
    else:
        with pytest.raises(InfeasibleDesign) as got:
            find_design_weights(fiducials, t, n, d)
        with pytest.raises(InfeasibleDesign) as want:
            oracles.find_design_weights(fiducials, t, n, d)
        assert got.value.residual == pytest.approx(want.value.residual, rel=1e-8)
    for w in weights:
        gap = mixture_design_gap(fiducials, w, t, n, d)
        assert abs(gap - oracles.mixture_design_gap(fiducials, w, t, n, d)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qutrit_fiducial_angle_matches_brentq(n):
    r = r_matrix(css_subspace(Subspace(np.ones((1, 3), dtype=np.int64), 3)))
    target = (3.0 / (3**n + 2)) ** (1.0 / n)

    def f(theta):
        v = kron_power_vec(np.array([np.cos(theta), -np.sin(theta), 0.0]), 3)
        return (v @ r @ v).real - target

    assert abs(qutrit_fiducial_angle(n) - brentq(f, 0.0, np.pi / 4, xtol=1e-15)) < 1e-12
