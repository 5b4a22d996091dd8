"""Moments of stabilizer states and Haar states, and t-design construction.

All moment operators live in the span of the R(T).  Twirled moments are
constant on the K classes of `sigma_classes`, so designs are computed from
K moments per state and the K x K `class_gram`, never from the
|Sigma| x |Sigma| Gram matrix tr[R(T)^dag R(T')] = d^{n dim(T cap T')}.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .definetti import _nnls, gram
from .gf import Subspace, image_indices, orbits
from .phase_space import check_dim, freeze, kron_power_rows, kron_power_vec, square_side
from .stabilizer import all_stabilizer_states
from .commutant import (
    R_sum,
    R_support,
    css_subspace,
    orthogonal_stochastic_group,
    r_matrix,
    sigma_stack,
    subspace_from_matrix,
)

__all__ = [
    "stab_moment_coefficients",
    "haar_moment_coefficients",
    "moment_operator",
    "stab_moment_operator",
    "empirical_stab_moment",
    "sigma_classes",
    "class_gram",
    "orbit_moment_vector",
    "find_design_weights",
    "InfeasibleDesign",
    "qutrit_fiducial_angle",
    "minimal_projector",
    "mixture_design_gap",
    "stab_tensor_rank",
]

# largest residual ||A p - b|| of the design constraints counted as feasible
_DESIGN_ATOL = 1e-9
# width of the bracket at which the fiducial-angle bisection stops
_ANGLE_XTOL = 1e-13
# T's per block of `R_support` read by the class Gram
_CLASS_BLOCK = 8192


class InfeasibleDesign(ValueError):
    """No weights over the given fiducials make a t-design; `residual` is
    the least constraint residual over non-negative weights."""

    def __init__(self, residual: float):
        super().__init__(f"no design weights exist for the given fiducials "
                         f"(constraint residual {residual:.3g})")
        self.residual = residual


def stab_moment_coefficients(t: int, n: int, d: int) -> np.ndarray:
    """gamma with E_S[(|S><S|)^{x t}] = sum_T gamma_T R(T); gamma_T = 1/Z.

    Z = d^n prod_{k=0}^{t-2} (d^k + d^n).
    """
    Z = d**n * math.prod(d**k + d**n for k in range(t - 1))
    return np.full(len(sigma_stack(t, d)), 1.0 / Z)


def _haar_weight(t: int, n: int, d: int) -> float:
    """1/prod_{k<t}(d^n + k), the Haar coefficient of every permutation T."""
    return 1.0 / math.prod(d**n + k for k in range(t))


def haar_moment_coefficients(t: int, n: int, d: int) -> np.ndarray:
    """gamma for the Haar moment: `_haar_weight` on the permutation T's,
    which form the first class of `sigma_classes`, and 0 elsewhere."""
    gamma = np.zeros(len(sigma_stack(t, d)))
    gamma[list(sigma_classes(t, d)[0])] = _haar_weight(t, n, d)
    return gamma


def moment_operator(gamma: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """sum_T gamma_T R(T) as an explicit matrix."""
    return R_sum(sigma_stack(t, d), gamma, n, d)


def stab_moment_operator(t: int, n: int, d: int) -> np.ndarray:
    return moment_operator(stab_moment_coefficients(t, n, d), t, n, d)


def empirical_stab_moment(t: int, n: int, d: int) -> np.ndarray:
    """Average of (|S><S|)^{x t} over all stabilizer states, densely."""
    V = kron_power_rows(all_stabilizer_states(n, d), t)
    return V.T @ V.conj() / len(V)


# ---------------------------------------------------------------------------
# equivalence classes of Sigma under S_t x S_t and transposition
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def sigma_classes(t: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Partition of Sigma_{t,t}(d) under T ~ pi T pi' and T ~ T^t.

    Returns index tuples into sigma_stack(t, d); the class of
    the permutation subspaces comes first.  The group is generated by the
    swap T -> T^t of the two halves and by a transposition and a t-cycle
    of the copies on the left (conjugating by the swap moves them to the
    right); each generator permutes the columns of all bases of
    `sigma_stack(t, d)` at once.
    """
    bases = sigma_stack(t, d)
    right = np.arange(t, 2 * t)
    orders = [np.r_[right, :t], np.r_[np.roll(np.arange(t), 1), right]]
    if t > 1:
        orders.append(np.r_[1, 0, 2:t, right])
    images = [image_indices(bases, bases[:, :, cols], d) for cols in orders]
    classes = [tuple(orbit.tolist()) for orbit in orbits(images)]

    # the class of the permutation subspaces holds the diagonal T_identity,
    # whose canonical basis is (I | I)
    eye = np.eye(t, dtype=bases.dtype)
    (diagonal,) = np.flatnonzero((bases == np.hstack([eye, eye])).all(axis=(1, 2))).tolist()
    first = [c for c in classes if diagonal in c]
    rest = [c for c in classes if c is not first[0]]
    return tuple(first + rest)


# ---------------------------------------------------------------------------
# Clifford orbit moments and design construction
# ---------------------------------------------------------------------------

def _moments(fiducials, bases: np.ndarray, n: int, d: int) -> np.ndarray:
    """out[f, i] = tr[R(T_i)^dag (|psi_f><psi_f|)^{x t}] for a (m, t, 2t)
    stack of bases, from one `R_support` table."""
    t = bases.shape[2] // 2
    rows, cols = R_support(bases, n, d)
    out = []
    for psi in fiducials:
        v = kron_power_vec(np.asarray(psi, dtype=complex), t)
        out.append([np.vdot(v[c], v[r]) for r, c in zip(rows, cols)])
    m = np.array(out)
    if np.abs(m.imag).max() > 1e-9:
        raise ValueError("moment inner products came out non-real")
    return m.real


def orbit_moment_vector(psi: np.ndarray, t: int, n: int, d: int) -> np.ndarray:
    """m_T = tr[R(T)^dag (|psi><psi|)^{x t}] over all T, in enumeration order.

    These inner products are invariant under the Clifford twirl, so they
    determine the twirled moment operator completely.
    """
    return _moments([psi], sigma_stack(t, d), n, d)[0]


@lru_cache(maxsize=None)
def class_gram(t: int, n: int, d: int) -> np.ndarray:
    """Read-only H[k, l] = sum_{j in class l} |T_k cap T_j|^n as Python
    ints, for T_k the first member of class k of `sigma_classes`.

    Row k is the Gram matrix tr[R(T_i)^dag R(T_j)] of any T_i in class k
    summed over each class, so H g is the Gram product of the coefficients
    g_l on class l.  The points of each T_k are marked in a K x d^{2t}
    table, which the cap guards; those of the T_j come from
    `R_support(., 1, d)` (which guards each block of `_CLASS_BLOCK`).
    """
    bases, classes = sigma_stack(t, d), sigma_classes(t, d)
    K, size = len(classes), d**t
    check_dim(square_side(K * size * size))
    label = np.empty(len(bases), dtype=np.int64)
    label[np.concatenate(classes)] = np.repeat(np.arange(K), [len(c) for c in classes])
    rows, cols = R_support(bases[[cls[0] for cls in classes]], 1, d)
    marked = np.zeros((K, size * size), dtype=bool)
    marked[np.arange(K)[:, None], rows * size + cols] = True
    # meets[k, l, c]: how many T_j of class l meet T_k in c points
    meets = np.zeros(K * K * (size + 1), dtype=np.int64)
    for lo in range(0, len(bases), _CLASS_BLOCK):
        rows, cols = R_support(bases[lo:lo + _CLASS_BLOCK], 1, d)
        points, block_label = rows * size + cols, label[lo:lo + len(rows)]
        for k in range(K):
            c = np.count_nonzero(marked[k][points], axis=1)
            meets += np.bincount((k * K + block_label) * (size + 1) + c, minlength=len(meets))
    powers = np.array([c**n for c in range(size + 1)], dtype=object)
    return freeze(meets.reshape(K, K, size + 1).astype(object) @ powers)


def find_design_weights(fiducials, t: int, n: int, d: int) -> np.ndarray:
    """Probabilities p over fiducial states making the orbit mixture a t-design.

    The mixture of twirled orbits equals the Haar moment iff its inner
    products with the R(T) match those of the Haar moment.  The products are
    constant on equivalence classes, so one constraint per class beyond the
    permutation class suffices (that one is implied by normalization).  A
    basic feasible solution then has support at most the number of classes.
    The Haar products are `_haar_weight` times column 0 of the `class_gram`.
    The weights are the basic non-negative least-squares solution of those
    constraints; a residual above `_DESIGN_ATOL` raises `InfeasibleDesign`.
    """
    reps = [cls[0] for cls in sigma_classes(t, d)]
    moments = _moments(fiducials, sigma_stack(t, d)[reps], n, d)  # (fiducials, K)
    m_haar = _haar_weight(t, n, d) * class_gram(t, n, d)[:, 0].astype(float)
    A_eq = np.vstack([moments[:, 1:].T, np.ones((1, len(fiducials)))])
    b_eq = np.concatenate([m_haar[1:], [1.0]])
    p = _nnls(A_eq, b_eq)
    residual = float(np.linalg.norm(A_eq @ p - b_eq))
    if residual > _DESIGN_ATOL:
        raise InfeasibleDesign(residual)
    return p / p.sum()


def mixture_design_gap(fiducials, weights, t: int, n: int, d: int) -> float:
    """Frobenius distance of a weighted twirled-orbit mixture to the Haar
    moment: for m its class moments, H the `class_gram` and g solving
    H g = m - m_Haar, the square is sum_k |class k| g_k (m - m_Haar)_k.  The
    least-norm g of `lstsq` keeps a singular H from lifting m's rounding."""
    classes = sigma_classes(t, d)
    m = np.asarray(weights, dtype=float) @ _moments(
        fiducials, sigma_stack(t, d)[[cls[0] for cls in classes]], n, d)
    H = class_gram(t, n, d).astype(float)
    dm = m - _haar_weight(t, n, d) * H[:, 0]
    g = np.linalg.lstsq(H, dm, rcond=None)[0]
    gap2 = sum(len(cls) * g_k * dm_k for cls, g_k, dm_k in zip(classes, g, dm))
    return float(np.sqrt(max(gap2, 0.0)))


def qutrit_fiducial_angle(n: int) -> float:
    """theta with the Clifford orbit of (cos(theta)|0> - sin(theta)|1>)^{x n}
    a projective 3-design on n qutrits.

    The overlap <psi^{x 3}| r(T) |psi^{x 3}> with T the CSS subspace of
    span{1_3} decreases from 1 to 0 on [0, pi/4]; the design condition is
    that it equals (3 / (3^n + 2))^{1/n}, found by bisection to
    `_ANGLE_XTOL`.
    """
    N = Subspace(np.ones((1, 3), dtype=np.int64), 3)
    r = r_matrix(css_subspace(N))
    target = (3.0 / (3**n + 2)) ** (1.0 / n)
    lo, hi = 0.0, np.pi / 4
    while hi - lo > _ANGLE_XTOL:
        mid = 0.5 * (lo + hi)
        psi = np.array([np.cos(mid), -np.sin(mid), 0.0])
        v = np.kron(np.kron(psi, psi), psi)
        if v @ r @ v > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# minimal projector and the span of stabilizer tensor powers
# ---------------------------------------------------------------------------

def minimal_projector(t: int, n: int, d: int) -> np.ndarray:
    """Pi_min = |O_t(d)|^{-1} sum_{O in O_t(d)} R(T_O), densely."""
    Ts = [subspace_from_matrix(O, d) for O in orthogonal_stochastic_group(t, d)]
    return R_sum(Ts, np.ones(len(Ts)), n) / len(Ts)


def stab_tensor_rank(t: int, n: int, d: int) -> int:
    """Rank of span{|S>^{x t} : S stabilizer state} via the Gram matrix."""
    eig = np.linalg.eigvalsh(gram(n, d, t).G)
    return int((eig > 1e-8 * eig.max()).sum())
