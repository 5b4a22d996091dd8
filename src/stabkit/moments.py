"""Moments of stabilizer states and Haar states, and t-design construction.

All moment operators live in the span of the R(T); where possible they are
handled as coefficient vectors over Sigma_{t,t}(d), with norms computed
through the exact Gram matrix tr[R(T)^dag R(T')] = d^{n dim(T cap T')}.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .definetti import gram
from .gf import Subspace, orbits
from .phase_space import kron_power_rows, kron_power_vec, linear_index_map
from .stabilizer import all_stabilizer_states
from .commutant import (
    R_gram,
    R_sum,
    R_support,
    css_subspace,
    orthogonal_stochastic_group,
    permutation_matrix,
    r_matrix,
    stochastic_lagrangians,
    subspace_from_matrix,
)

__all__ = [
    "permutation_subspaces",
    "stab_moment_coefficients",
    "haar_moment_coefficients",
    "moment_operator",
    "stab_moment_operator",
    "empirical_stab_moment",
    "frobenius_distance",
    "sigma_classes",
    "orbit_moment_vector",
    "orbit_coefficients",
    "permutation_operator",
    "class_coefficients",
    "design_gap",
    "find_design_weights",
    "qutrit_fiducial_angle",
    "minimal_projector",
    "mixture_design_gap",
    "stab_tensor_rank",
    "symmetrizer",
]


def permutation_subspaces(t: int, d: int) -> dict[Subspace, tuple[int, ...]]:
    """Map T_pi -> pi over all permutations of t copies."""
    out = {}
    for perm in itertools.permutations(range(t)):
        out[subspace_from_matrix(permutation_matrix(perm), d)] = perm
    return out


def stab_moment_coefficients(t: int, n: int, d: int) -> np.ndarray:
    """gamma with E_S[(|S><S|)^{x t}] = sum_T gamma_T R(T); gamma_T = 1/Z.

    Z = d^n prod_{k=0}^{t-2} (d^k + d^n).
    """
    Z = d**n
    for k in range(t - 1):
        Z *= d**k + d**n
    m = len(stochastic_lagrangians(t, d))
    return np.full(m, 1.0 / Z)

def haar_moment_coefficients(t: int, n: int, d: int) -> np.ndarray:
    """gamma for the Haar moment: 1/prod_{k}(d^n + k) on permutation T's."""
    Ts = stochastic_lagrangians(t, d)
    perms = permutation_subspaces(t, d)
    c = 1.0
    for k in range(t):
        c /= d**n + k
    return np.array([c if T in perms else 0.0 for T in Ts])


def moment_operator(gamma: np.ndarray, t: int, n: int, d: int, dense: bool = True):
    """sum_T gamma_T R(T) as an explicit matrix."""
    acc = R_sum(stochastic_lagrangians(t, d), gamma, n)
    return acc.toarray() if dense else acc


def stab_moment_operator(t: int, n: int, d: int, dense: bool = True):
    return moment_operator(stab_moment_coefficients(t, n, d), t, n, d, dense)


def empirical_stab_moment(t: int, n: int, d: int) -> np.ndarray:
    """Average of (|S><S|)^{x t} over all stabilizer states, densely."""
    V = kron_power_rows(all_stabilizer_states(n, d), t)
    return V.T @ V.conj() / len(V)


def frobenius_distance(gamma1: np.ndarray, gamma2: np.ndarray, G: np.ndarray) -> float:
    """|| sum (gamma1 - gamma2)_T R(T) ||_F through the Gram matrix."""
    diff = np.asarray(gamma1) - np.asarray(gamma2)
    val = diff @ G @ diff
    return float(np.sqrt(max(val.real, 0.0)))


# ---------------------------------------------------------------------------
# equivalence classes of Sigma under S_t x S_t and transposition
# ---------------------------------------------------------------------------

def _left_permute(T: Subspace, perm) -> Subspace:
    """pi T : (x, y) -> (pi x, y); permutes the first t coordinates."""
    t = T.ambient // 2
    cols = list(range(2 * t))
    for j in range(t):
        cols[perm[j]] = j
    return Subspace(T.basis[:, cols], T.d)


def _right_permute(T: Subspace, perm) -> Subspace:
    t = T.ambient // 2
    cols = list(range(2 * t))
    for j in range(t):
        cols[t + perm[j]] = t + j
    return Subspace(T.basis[:, cols], T.d)


def _transpose(T: Subspace) -> Subspace:
    t = T.ambient // 2
    return Subspace(np.hstack([T.basis[:, t:], T.basis[:, :t]]), T.d)


@lru_cache(maxsize=None)
def sigma_classes(t: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Partition of Sigma_{t,t}(d) under T ~ pi T pi' and T ~ T^t.

    Returns index tuples into stochastic_lagrangians(t, d); the class of
    the permutation subspaces comes first.
    """
    Ts = stochastic_lagrangians(t, d)
    index = {T: i for i, T in enumerate(Ts)}
    gens = [tuple(range(t))]
    for k in range(t - 1):  # adjacent transpositions generate S_t
        g = list(range(t))
        g[k], g[k + 1] = g[k + 1], g[k]
        gens.append(tuple(g))

    def neighbours(i):
        T = Ts[i]
        yield index[_transpose(T)]
        for g in gens[1:]:
            yield index[_left_permute(T, g)]
            yield index[_right_permute(T, g)]

    classes = [tuple(sorted(orbit)) for orbit in orbits(range(len(Ts)), neighbours)]

    perms = permutation_subspaces(t, d)
    first = [c for c in classes if index[next(iter(perms))] in c]
    rest = [c for c in classes if c is not first[0]]
    return tuple(first + rest)


# ---------------------------------------------------------------------------
# Clifford orbit moments and design construction
# ---------------------------------------------------------------------------

def orbit_moment_vector(psi: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """m_T = tr[R(T)^dag (|psi><psi|)^{x t}] over all T, in enumeration order.

    These inner products are invariant under the Clifford twirl, so they
    determine the twirled moment operator completely.
    """
    rows, cols = R_support(stochastic_lagrangians(t, d), n)
    v = kron_power_vec(np.asarray(psi, dtype=complex), t)
    m = np.array([np.vdot(v[c], v[r]) for r, c in zip(rows, cols)])
    if np.abs(m.imag).max() > 1e-9:
        raise ValueError("moment inner products came out non-real")
    return m.real


def orbit_coefficients(psi: np.ndarray, t: int, n: int, d: int, G=None) -> np.ndarray:
    """gamma with E_U[(U|psi><psi|U^dag)^{x t}] = sum_T gamma_T R(T).

    Solves the Gram system tr[R(T)^dag R(T')] gamma = m in the least-squares
    sense; below n = t - 1 the R(T) are linearly dependent and the returned
    gamma is the minimum-norm representative.
    """
    Ts = stochastic_lagrangians(t, d)
    if G is None:
        G = R_gram(Ts, n)
    m = orbit_moment_vector(psi, t, n, d)
    gamma, *_ = np.linalg.lstsq(G, m, rcond=None)
    return gamma


def class_coefficients(gamma: np.ndarray, t: int, d: int, atol: float = 1e-9) -> np.ndarray:
    """Collapse a coefficient vector that is constant on each class."""
    classes = sigma_classes(t, d)
    out = np.empty(len(classes))
    for i, cls in enumerate(classes):
        vals = gamma[list(cls)]
        if np.ptp(vals) > atol:
            raise ValueError("coefficients are not constant on a class")
        out[i] = vals.mean()
    return out


def design_gap(gamma: np.ndarray, t: int, n: int, d: int, G=None) -> float:
    """Frobenius distance of a commutant operator to the Haar moment."""
    Ts = stochastic_lagrangians(t, d)
    if G is None:
        G = R_gram(Ts, n)
    return frobenius_distance(gamma, haar_moment_coefficients(t, n, d), G)


def find_design_weights(fiducials, t: int, n: int, d: int) -> np.ndarray:
    """Probabilities p over fiducial states making the orbit mixture a t-design.

    The mixture of twirled orbits equals the Haar moment iff its inner
    products with the R(T) match those of the Haar moment.  The products are
    constant on equivalence classes, so one constraint per class beyond the
    permutation class suffices (that one is implied by normalization).  A
    basic feasible solution then has support at most the number of classes.
    """
    from scipy.optimize import linprog

    Ts = stochastic_lagrangians(t, d)
    classes = sigma_classes(t, d)
    reps = [cls[0] for cls in classes]
    G = R_gram(Ts, n)
    m_haar = G @ haar_moment_coefficients(t, n, d)
    moments = np.array(
        [orbit_moment_vector(psi, t, n, d)[reps] for psi in fiducials]
    )  # (K, M)
    K = len(fiducials)
    A_eq = np.vstack([moments[:, 1:].T, np.ones((1, K))])
    b_eq = np.concatenate([m_haar[reps][1:], [1.0]])
    res = linprog(np.zeros(K), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * K)
    if not res.success:
        raise ValueError("no design weights exist for the given fiducials")
    p = res.x
    p[p < 1e-12] = 0.0
    return p / p.sum()


def mixture_design_gap(fiducials, weights, t: int, n: int, d: int) -> float:
    """Frobenius distance of a weighted twirled-orbit mixture to the Haar
    moment, computed through moment vectors in the commutant span."""
    Ts = stochastic_lagrangians(t, d)
    G = R_gram(Ts, n)
    m_mix = sum(
        w * orbit_moment_vector(psi, t, n, d) for w, psi in zip(weights, fiducials)
    )
    gamma = np.linalg.lstsq(G, m_mix, rcond=None)[0]
    return design_gap(gamma, t, n, d, G=G)


def qutrit_fiducial_angle(n: int) -> float:
    """theta with the Clifford orbit of (cos(theta)|0> - sin(theta)|1>)^{x n}
    a projective 3-design on n qutrits.

    The overlap <psi^{x 3}| r(T) |psi^{x 3}> with T the CSS subspace of
    span{1_3} decreases from 1 to 0 on [0, pi/4]; the design condition is
    that it equals (3 / (3^n + 2))^{1/n}.
    """
    from scipy.optimize import brentq

    N = Subspace(np.ones((1, 3), dtype=np.int64), 3)
    r = r_matrix(css_subspace(N), dense=True)
    target = (3.0 / (3**n + 2)) ** (1.0 / n)

    def f(theta):
        psi = np.array([np.cos(theta), -np.sin(theta), 0.0])
        v = np.kron(np.kron(psi, psi), psi)
        return float(v @ r @ v) - target

    return float(brentq(f, 0.0, np.pi / 4))


# ---------------------------------------------------------------------------
# minimal projector and the span of stabilizer tensor powers
# ---------------------------------------------------------------------------

def minimal_projector(t: int, n: int, d: int) -> np.ndarray:
    """Pi_min = |O_t(d)|^{-1} sum_{O in O_t(d)} R(T_O), densely."""
    Ts = [subspace_from_matrix(O, d) for O in orthogonal_stochastic_group(t, d)]
    return R_sum(Ts, np.ones(len(Ts)), n).toarray() / len(Ts)


def stab_tensor_rank(t: int, n: int, d: int) -> int:
    """Rank of span{|S>^{x t} : S stabilizer state} via the Gram matrix."""
    eig = np.linalg.eigvalsh(gram(n, d, t).G)
    return int((eig > 1e-8 * eig.max()).sum())


def permutation_operator(perm, subdim: int) -> np.ndarray:
    """Operator permuting the tensor factors of (C^subdim)^{x len(perm)}."""
    t = len(perm)
    dim = subdim**t
    P = np.zeros((dim, dim))
    P[linear_index_map(permutation_matrix(perm), t, 1, subdim), np.arange(dim)] = 1.0
    return P


def symmetrizer(t: int, subdim: int) -> np.ndarray:
    """Projector onto the symmetric subspace of (C^subdim)^{x t}."""
    dim = subdim**t
    acc = np.zeros((dim, dim))
    for perm in itertools.permutations(range(t)):
        acc += permutation_operator(perm, subdim)
    return acc / math.factorial(t)
