"""Gram-matrix machinery for stabilizer tensor powers and de Finetti checks.

The key engineering device is the Gram expansion of reduced states: for
|Psi> = sum_S alpha_S |S>^{x t} the s-copy reduced state is

    rho_{1..s} = sum_{S,S'} alpha_S conj(alpha_{S'}) <S'|S>^{t-s}
                 |S><S'|^{x s},

which never materializes a d^{tn}-dimensional object, so t in the
hundreds is cheap at small n.  Dense tensor powers are used only as a
small-t cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .commutant import anti_identity_matrix, orthogonal_stochastic_group, permutation_matrix
from .gf import generating_set, orbits
from .phase_space import check_dim, kron_power_rows, linear_index_map, square_side
from .stabilizer import all_stabilizer_states

__all__ = [
    "GramData",
    "SymmetricInput",
    "gram",
    "vectorize",
    "purify",
    "make_invariant_state",
    "stab_power_decompose",
    "reduced_from_coefficients",
    "random_span_coefficients",
    "exp_definetti_check",
    "anti_definetti_check",
    "trace_distance",
    "pure_bound",
    "mixed_bound",
    "anti_bound",
]

# _nnls stops when no gradient entry off the support exceeds this times |A| |b|
_NNLS_RTOL = 1e-12
# outer (column-adding) steps of _nnls before it gives up
_NNLS_MAX_ITER = 1000


@dataclass
class GramData:
    n: int
    d: int
    t: int
    states: np.ndarray  # rows are the stabilizer state vectors
    G: np.ndarray  # G_{SS'} = <S|S'>^t
    eps: float

    @property
    def num_states(self) -> int:
        return len(self.states)


@dataclass
class SymmetricInput:
    t: int
    n: int
    d: int
    state: np.ndarray  # density operator on (d^n)^{x t}
    symmetry: str  # "full" or "perm+anti" or "perm"


def gram(n: int, d: int, t: int) -> GramData:
    """Gram data of the stabilizer tensor-power frame {|S>^{x t}}.

    eps = d^{((n+2)^2 - t)/2}; when eps < 1/2 the frame is close to
    orthonormal: ||G - I||_inf <= eps and the nonzero spectrum of
    Q = sum_S (|S><S|)^{x t} lies in [1 - 2 eps, 1 + 2 eps].
    """
    states = all_stabilizer_states(n, d)
    overlaps = states.conj() @ states.T
    G = overlaps**t
    eps = float(d) ** (((n + 2) ** 2 - t) / 2.0)
    return GramData(n=n, d=d, t=t, states=np.asarray(states), G=G, eps=eps)


def vectorize(B: np.ndarray) -> np.ndarray:
    """vec(B) with |i>|j> carrying the matrix element B_ij."""
    return np.asarray(B).reshape(-1)


def purify(rho: np.ndarray) -> np.ndarray:
    """Standard purification vec(rho^{1/2}) on the doubled system."""
    vals, vecs = np.linalg.eigh(rho)
    if vals.min() < -1e-9:
        raise ValueError("rho is not positive semidefinite")
    root = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    return vectorize(root)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(a - b)
    return float(0.5 * np.abs(vals).sum())


def _embedded_anti(t: int) -> np.ndarray:
    """Anti-identity acting on the first six copies, identity on the rest."""
    out = np.eye(t, dtype=np.int64)
    out[:6, :6] = anti_identity_matrix(6)
    return out


def make_invariant_state(
    t: int, n: int, d: int, symmetry: str, seed: int, pure: bool = True
) -> SymmetricInput:
    """Twirl of a random input state onto the declared symmetry's commutant.

    Every copy map O permutes the basis indices (`linear_index_map`), so
    the average over the group the maps generate is the mean of the input
    over each orbit of indices, with the orbits closed by `gf.orbits` on
    the index tables of a generating set.  symmetry = "perm" is generated
    by the t-cycle and the swap of copies 0 and 1; "perm+anti" adds the
    anti-identity on the first six copies (d = 2, t a multiple of 6);
    "full" takes a generating set of O_t(d).  Pure inputs are averaged as
    vectors over index orbits (so the result is an invariant pure state);
    mixed inputs as matrices over orbits of index pairs (i, j), on which O
    acts by its index permutation on both entries.  The cap guards dim, and
    for a mixed input the generators x dim^2 pair tables as entries of a
    square operator.
    """
    if t < 2:
        raise ValueError("the copy symmetries need t >= 2")
    dim = d ** (t * n)
    check_dim(dim)
    rng = np.random.default_rng(seed)
    if symmetry == "full":
        gens = generating_set(orthogonal_stochastic_group(t, d), d)
    elif symmetry in ("perm", "perm+anti"):
        swap = np.arange(t)
        swap[[0, 1]] = [1, 0]
        gens = [permutation_matrix(p) for p in (swap, np.roll(np.arange(t), 1))]
        if symmetry == "perm+anti":
            if d != 2 or t % 6:
                raise ValueError("perm+anti needs d = 2 and t a multiple of 6")
            gens.append(_embedded_anti(t))
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    tables = np.array([linear_index_map(O, t, n, d) for O in gens])

    if pure:
        x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    else:
        check_dim(square_side(len(gens) * dim**2))
        k = min(dim, 16)
        A = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
        x = (A @ A.conj().T).reshape(-1)
        tables = (tables[:, :, None] * dim + tables[:, None, :]).reshape(len(gens), -1)
    classes = orbits(tables)
    label = np.empty(len(x), dtype=np.int64)
    label[np.concatenate(classes)] = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    counts = np.bincount(label)
    re = np.bincount(label, weights=x.real) / counts
    im = np.bincount(label, weights=x.imag) / counts
    x = (re + 1j * im)[label]
    if pure:
        x /= np.linalg.norm(x)
        rho = np.outer(x, x.conj())
    else:
        x /= x[:: dim + 1].sum().real  # the trace
        rho = x.reshape(dim, dim)
    for table in tables:
        if np.abs(x[table] - x).max() > 1e-9:
            raise AssertionError("twirled state is not invariant under a generator")
    return SymmetricInput(t=t, n=n, d=d, state=rho, symmetry=symmetry)


def stab_power_decompose(psi: np.ndarray, data: GramData) -> tuple[np.ndarray, float]:
    """Coefficients alpha with |psi> = sum_S alpha_S |S>^{x t}, plus residual.

    Solved through the Gram matrix, equivalent to projecting onto the
    orthonormalized frame (Q^+)^{1/2}|S>^{x t}.  The frame is guaranteed
    injective when eps < 1/2; outside that regime a least-squares solution
    is returned and the residual is the caller's responsibility.
    """
    vecs = kron_power_rows(data.states, data.t)
    rhs = vecs.conj() @ psi
    alpha = np.linalg.lstsq(data.G, rhs, rcond=None)[0]
    residual = float(np.linalg.norm(psi - vecs.T @ alpha))
    return alpha, residual


def random_span_coefficients(data: GramData, seed: int) -> np.ndarray:
    """alpha for a random normalized state in span{|S>^{x t}}."""
    rng = np.random.default_rng(seed)
    m = data.num_states
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    norm2 = (c.conj() @ data.G @ c).real
    return c / math.sqrt(norm2)


def reduced_from_coefficients(alpha: np.ndarray, s: int, data: GramData) -> np.ndarray:
    """rho_{1..s} of sum_S alpha_S |S>^{x t} via the Gram expansion."""
    overlaps = data.states.conj() @ data.states.T  # overlaps[a, b] = <S_a|S_b>
    weights = np.outer(alpha, alpha.conj()) * overlaps.T ** (data.t - s)
    V = kron_power_rows(data.states, s)
    return V.T @ weights @ V.conj()


def _stab_mixture(p: np.ndarray, s: int, data: GramData) -> np.ndarray:
    """sum_S p_S (|S><S|)^{x s}."""
    V = kron_power_rows(data.states, s)
    return (V.T * p) @ V.conj()


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin_{p >= 0} ||A p - b||_2 by the Lawson-Hanson active-set method.

    A tall A is first replaced by the triangular factor R of A = QR and b
    by Q^T b, which leaves the gradient A^T (b - A p) unchanged; both are
    read off the R factor of [A | b], so Q is never formed.  The columns
    of the support (the passive set) stay linearly independent, so the
    solution is basic.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    k = A.shape[1]
    tol = _NNLS_RTOL * np.linalg.norm(A) * np.linalg.norm(b)
    if A.shape[0] > k:
        Rb = np.linalg.qr(np.column_stack([A, b]), mode="r")
        A, b = Rb[:k, :k], Rb[:k, k]
    p = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    blocked = np.zeros(k, dtype=bool)  # columns that rounding kept from entering at this p

    def solve():
        z = np.zeros(k)
        z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
        return z

    for _ in range(_NNLS_MAX_ITER):
        w = A.T @ (b - A @ p)
        w[passive | blocked] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return p
        passive[j] = True
        z = solve()
        if z[j] <= 0:
            passive[j], blocked[j] = False, True
            continue
        blocked[:] = False
        while (z[passive] <= 0).any():
            # step from p towards z until the first support entry reaches 0
            neg = np.flatnonzero(passive & (z <= 0))
            ratio = p[neg] / (p[neg] - z[neg])
            p += ratio.min() * (z - p)
            p[neg[ratio.argmin()]] = 0.0
            passive &= p > 0
            z = solve()
        p = z
    raise RuntimeError(f"NNLS did not converge in {_NNLS_MAX_ITER} steps")


def _partial_trace(rho: np.ndarray, dims, keep) -> np.ndarray:
    """Trace of rho, on factors of sizes dims, over every factor not in keep."""
    k = len(dims)
    cols = [k + i if i in keep else i for i in range(k)]
    out = [*keep, *(k + i for i in keep)]
    size = math.prod(dims[i] for i in keep)
    return np.einsum(rho.reshape(tuple(dims) * 2), [*range(k), *cols], out).reshape(size, size)


def pure_bound(n: int, d: int, t: int, s: int) -> float:
    return 2.0 * d ** ((n + 2) ** 2 / 2.0) * d ** (-(t - s) / 2.0)


def mixed_bound(n: int, d: int, t: int, s: int) -> float:
    return 2.0 * d ** ((2 * n + 2) ** 2 / 2.0) * d ** (-(t - s) / 2.0)


def anti_bound(n: int, t: int, s: int, mixed: bool = False) -> float:
    if mixed:
        return 6.0 * math.sqrt(2.0) * 2**n * math.sqrt(s / t)
    return 6.0 * math.sqrt(2 ** (n + 1)) * math.sqrt(s / t)


def exp_definetti_check(
    source,
    s: int,
    t: int | None = None,
    n: int | None = None,
    d: int | None = None,
    mixed: bool = False,
) -> dict:
    """Distance of the s-copy reduced state to a stabilizer-power mixture.

    `source` is either a SymmetricInput (dense state, full O_t symmetry;
    pure inputs use the pure-state bound, mixed inputs are purified onto
    2n qudits first) or a coefficient vector alpha over the stabilizer
    ensemble, in which case t, n, d must be supplied.  With mixed=True the
    coefficient route reads alpha over the 2n-qudit ensemble, representing
    the purification of a mixed invariant state.
    """
    if isinstance(source, SymmetricInput):
        t, n, d = source.t, source.n, source.d
        if source.symmetry != "full":
            raise ValueError("exponential de Finetti needs full O_t symmetry")
        vals, vecs = np.linalg.eigh(source.state)
        if vals[-1] > 1.0 - 1e-9:
            # pure input
            data = gram(n, d, t)
            alpha, residual = stab_power_decompose(vecs[:, -1], data)
            bound = pure_bound(n, d, t, s)
            mixed = False
        else:
            psi = purify(source.state)
            # reorder (sys copies, anc copies) -> (sys1, anc1, sys2, anc2, ...)
            # so the doubled system reads as (d^{2n})^{x t}
            order = np.arange(2 * t).reshape(2, t).T.reshape(-1)
            psi = psi.reshape((d**n,) * (2 * t)).transpose(order).reshape(-1)
            data = gram(2 * n, d, t)
            alpha, residual = stab_power_decompose(psi, data)
            bound = mixed_bound(n, d, t, s)
            mixed = True
    else:
        alpha = np.asarray(source, dtype=complex)
        if t is None or n is None or d is None:
            raise ValueError("coefficient route needs explicit t, n, d")
        data = gram(2 * n if mixed else n, d, t)
        residual = 0.0
        bound = mixed_bound(n, d, t, s) if mixed else pure_bound(n, d, t, s)
    if not 1 <= s <= t:
        raise ValueError(f"s={s} must lie in 1..t={t}")
    norm2 = float((alpha.conj() @ data.G @ alpha).real)
    p = np.abs(alpha) ** 2
    p = p / p.sum()
    rho_s = reduced_from_coefficients(alpha / math.sqrt(norm2), s, data)
    sigma = _stab_mixture(p, s, data)
    if mixed:
        # factors (sys1, anc1, ..., sys_s, anc_s): keep the systems
        dims, keep = (d**n,) * (2 * s), range(0, 2 * s, 2)
        rho_s = _partial_trace(rho_s, dims, keep)
        sigma = _partial_trace(sigma, dims, keep)
    dist = trace_distance(rho_s, sigma)
    return {
        "t": t,
        "s": s,
        "n": n,
        "d": d,
        "mixed": mixed,
        "distance": dist,
        "bound": float(bound),
        "decompose_residual": residual,
        "alpha_norm2": norm2,
        "passed": bool(dist <= bound + 1e-10),
        "vacuous": bool(bound > 1.0),
    }


def anti_definetti_check(source: SymmetricInput, s: int) -> dict:
    """Distance to the best stabilizer-power mixture under the weaker
    permutation + anti-identity symmetry (qubits, s a multiple of 6)."""
    t, n, d = source.t, source.n, source.d
    if d != 2:
        raise ValueError("anti-identity de Finetti is a qubit statement")
    if s % 6:
        raise ValueError("s must be a multiple of 6")
    if source.symmetry not in ("perm+anti", "full"):
        raise ValueError("needs permutation + anti-identity symmetry")
    rho = _partial_trace(source.state, (d**n,) * t, range(s))
    data = gram(n, d, t)
    V = kron_power_rows(data.states, s)
    basis = (V[:, :, None] * V.conj()[:, None, :]).reshape(len(V), -1)
    A = np.vstack([basis.real.T, basis.imag.T])
    b = np.concatenate([rho.reshape(-1).real, rho.reshape(-1).imag])
    p = _nnls(A, b)
    if p.sum() <= 0:
        p = np.ones(len(p))
    p = p / p.sum()
    sigma = _stab_mixture(p, s, data)
    dist = trace_distance(rho, sigma)
    # tr rho^2 for Hermitian rho
    purity = float(np.vdot(source.state, source.state).real)
    bound = anti_bound(n, t, s, mixed=purity < 1.0 - 1e-9)
    return {
        "t": t,
        "s": s,
        "n": n,
        "d": d,
        "distance": float(dist),
        "bound": float(bound),
        "weights": p,
        "passed": bool(dist <= bound + 1e-10),
        "vacuous": bool(bound > 1.0),
    }
