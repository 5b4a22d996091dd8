"""Algebra over structures already enumerated.

Warm-up enumerates Sigma_{4,4}(2), Sigma_{4,4}(3) and the stabilizer
tables for one to three qubits, so the timed phase does almost no
enumeration.  It runs the Gram matrix of R(T), the semigroup rule, the
commutation check, stabilizer moments, weighted orbit designs and the
de Finetti checks.  `gf` appears here only through `Subspace.intersect`
on subspaces that already exist.
"""

from __future__ import annotations

import math

import numpy as np

from stabkit import commutant, definetti, moments, stabilizer

import checks
from workloads import Op

GRAM = (4, 3, 3)  # (t, d, n): Gram matrix over Sigma_{4,4}(3), n = t - 1
GRAM_SAMPLES = 500
COMPOSE = (4, 2)  # all ordered pairs of Sigma_{4,4}(2)
COMMUTE = (4, 2, 2)  # (t, d, n)
MOMENT = (4, 2, 2)  # (t, n, d)
DESIGN = (4, 3, 2)  # (t, n, d)
FIDUCIALS = 8
EXP_DEFINETTI = ((1, 2, 30, 2), (2, 2, 20, 2))  # (n, d, t, s)
ANTI = (6, 6)  # (t, s) on one qubit

CACHED = {
    "commutant.stochastic_lagrangians": commutant.stochastic_lagrangians,
    "commutant.orthogonal_stochastic_group": commutant.orthogonal_stochastic_group,
    "moments.sigma_classes": moments.sigma_classes,
}


def _haar(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def build(rng, tracer, workdir):
    # warm-up: the enumerations the algebra below runs on
    t_g, d_g, n_g = GRAM
    sigma_g = commutant.stochastic_lagrangians(t_g, d_g)
    sigma_c = commutant.stochastic_lagrangians(*COMPOSE)
    for n in (1, 2, 3):
        stabilizer.all_stabilizer_states(n, 2)

    # inputs
    pairs = rng.integers(0, len(sigma_g), size=(GRAM_SAMPLES, 2))
    t_d, n_d, d_d = DESIGN
    # At t = 4 the design condition is one class moment, 4/11 on three
    # qubits.  A stabilizer state has moment 1 and the product of face
    # states (Bloch vector (1,1,1)/sqrt 3) has 8/27, so weights exist for
    # every seed.  Haar-random states fall on either side of 4/11, so
    # without the face states some seeds leave no weights.
    beta = 0.5 * math.acos(1.0 / math.sqrt(3.0))
    face = np.array([math.cos(beta), np.exp(1j * np.pi / 4) * math.sin(beta)])
    stab = stabilizer.all_stabilizer_states(n_d, d_d)
    fiducials = [stab[rng.integers(len(stab))], np.kron(np.kron(face, face), face)]
    fiducials += [_haar(rng, d_d**n_d) for _ in range(FIDUCIALS - 2)]
    orbit_psi = _haar(rng, d_d**n_d)
    alphas = [
        rng.normal(size=m) + 1j * rng.normal(size=m)
        for m in (checks.stabilizer_count(n, d) for n, d, _, _ in EXP_DEFINETTI)
    ]
    anti_seed = int(rng.integers(2**31))
    results: dict = {}
    r_cache: dict = {}

    def gram():
        G = tracer.call("commutant.R_gram", commutant.R_gram, sigma_g, n_g)
        tracer.count("commutant.R_gram.entries", G.size)
        results["G"] = G
        return G

    def check_gram(G):
        m = len(sigma_g)
        if G.shape != (m, m) or not np.array_equal(G, G.T):
            return [("commutant", "R_gram is not a symmetric m x m matrix")]
        if not (np.diag(G) == float(d_g) ** (n_g * t_g)).all():
            return [("commutant", "R_gram diagonal is not d^{n t}")]
        vals = np.linalg.eigvalsh(G)
        rank = int((vals > 1e-8 * vals.max()).sum())
        if rank != m:
            return [("commutant", f"R_gram rank {rank} at n = t - 1, want {m}")]
        return []

    def gram_entry(i, j):
        meet = tracer.call("gf.Subspace.intersect", sigma_g[i].intersect, sigma_g[j])
        return meet.dim

    def check_entry(i, j):
        def check(dim):
            if results["G"][i, j] != float(d_g) ** (n_g * dim):
                return [("commutant", f"R_gram[{i}, {j}] disagrees with dim(T_i cap T_j) = {dim}")]
            return []
        return check

    def r_of(T):
        if T not in r_cache:
            r_cache[T] = checks.r_dense(T.basis, T.d)
        return r_cache[T]

    def check_compose(T1, T2):
        def check(out):
            T3, k = out
            if not np.array_equal(r_of(T1) @ r_of(T2), T1.d**k * checks.r_dense(T3.basis, T1.d)):
                return [("commutant", "r(T1) r(T2) != d^k r(T1 o T2)")]
            return []
        return check

    def check_commute(out):
        if not (out["passed"] and out["max_norm"] < 1e-9):
            return [("commutant", f"[R(T), U^t] residual {out['max_norm']}")]
        return []

    def moment():
        t, n, d = MOMENT
        formula = tracer.call("moments.stab_moment_operator", moments.stab_moment_operator, t, n, d)
        brute = tracer.call("moments.empirical_stab_moment", moments.empirical_stab_moment, t, n, d)
        return float(np.linalg.norm(formula - brute))

    def check_moment(gap):
        return [] if gap < 1e-10 else [("moments", f"moment formula off by {gap}")]

    def design():
        w = tracer.call("moments.find_design_weights", moments.find_design_weights,
                        fiducials, t_d, n_d, d_d)
        gap = tracer.call("moments.mixture_design_gap", moments.mixture_design_gap,
                          fiducials, w, t_d, n_d, d_d)
        return w, gap

    def check_design(out):
        w, gap = out
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            return [("moments", "design weights are not a probability vector")]
        return [] if gap < 1e-8 else [("moments", f"design gap {gap}")]

    def check_orbit(m):
        direct = np.array([
            np.conj(checks.tensor_power_expectation(T.basis, orbit_psi, n_d, d_d))
            for T in commutant.stochastic_lagrangians(t_d, d_d)
        ])
        err = float(np.abs(m - direct).max())
        return [] if err < 1e-10 else [("moments", f"orbit moment vector off by {err}")]

    def exp_definetti(n, d, t, s, alpha):
        data = tracer.call("definetti.gram", definetti.gram, n, d, t)
        out = tracer.call("definetti.exp_definetti_check", definetti.exp_definetti_check,
                          alpha, s, t=t, n=n, d=d)
        return data, out

    def check_exp(n, d):
        def check(result):
            data, out = result
            if data.num_states != checks.stabilizer_count(n, d):
                return [("definetti", "Gram data has the wrong number of stabilizer states")]
            if np.abs(np.diag(data.G) - 1.0).max() > 1e-12:
                return [("definetti", "Gram diagonal is not 1")]
            return _check_distance(out)
        return check

    def anti():
        t, s = ANTI
        src = tracer.call("definetti.make_invariant_state", definetti.make_invariant_state,
                          t, 1, 2, "perm+anti", anti_seed)
        out = tracer.call("definetti.anti_definetti_check", definetti.anti_definetti_check, src, s)
        return float(np.trace(src.state).real), out

    def check_anti(result):
        trace, out = result
        if abs(trace - 1.0) > 1e-10:
            return [("definetti", f"invariant state has trace {trace}")]
        return _check_distance(out)

    def ops():
        yield Op("commutant.R_gram", gram, check_gram)
        for i, j in pairs:
            i, j = int(i), int(j)
            yield Op("gf.Subspace.intersect", lambda i=i, j=j: gram_entry(i, j), check_entry(i, j))
        for T1 in sigma_c:
            for T2 in sigma_c:
                yield Op("commutant.compose",
                         lambda T1=T1, T2=T2: tracer.call("commutant.compose", commutant.compose, T1, T2),
                         check_compose(T1, T2))
        t, d, n = COMMUTE
        for T in commutant.stochastic_lagrangians(t, d):
            yield Op("commutant.commutes_with_clifford",
                     lambda T=T: tracer.call("commutant.commutes_with_clifford",
                                             commutant.commutes_with_clifford, T, n, d),
                     check_commute)
        yield Op("moments.stab_moment_operator", moment, check_moment)
        yield Op("moments.find_design_weights", design, check_design)
        yield Op("moments.orbit_moment_vector",
                 lambda: tracer.call("moments.orbit_moment_vector", moments.orbit_moment_vector,
                                     orbit_psi, t_d, n_d, d_d),
                 check_orbit)
        for (n, d, t, s), alpha in zip(EXP_DEFINETTI, alphas):
            yield Op("definetti.exp_definetti_check",
                     lambda n=n, d=d, t=t, s=s, alpha=alpha: exp_definetti(n, d, t, s, alpha),
                     check_exp(n, d))
        yield Op("definetti.anti_definetti_check", anti, check_anti)

    return ops()


def _check_distance(out) -> list:
    if not (out["passed"] and 0.0 <= out["distance"] <= out["bound"] + 1e-10):
        return [("definetti", f"distance {out['distance']} above bound {out['bound']}")]
    return []
