"""Stabilizer-testing protocols, phase-space uncertainty, and negativity.

Acceptance probabilities come from one moment formula over the
characteristic distribution p_psi (or the Wigner function w_psi); no dense
POVM element on tensor powers of the state is built.  Weyl expectations
are gathers (the rows of c_psi, `weyl_action`), never dense Weyl
matrices.  Each protocol call transforms its state once: p_psi, the qubit
<psi|W_x|psi>, the Bell convolution and the stabilizer fidelities
(`stabilizer._max_fidelity`) come from one c_psi, and moment sums over
p_psi are taken block by block of rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .phase_space import (
    _char_wigner,
    _digit_dft,
    _pure_char,
    _pure_char_rows,
    _unit_state,
    char_distribution,
    point_index,
    symplectic_fourier,
    weyl_action,
    wigner_state,
)
from .gf import symplectic_form
from .stabilizer import _max_fidelity

__all__ = [
    "ProtocolReport",
    "bell_difference_distribution",
    "qubit_accept_probability",
    "simulate_algorithm1",
    "qudit_accept_probability",
    "three_copy_accept_probability",
    "uncertainty_weyl",
    "uncertainty_points",
    "sum_negativity",
    "mana",
    "wigner_norm",
    "robust_hudson_check",
    "max_mixed_state_check",
    "clifford_test",
    "choi_state",
]


@dataclass
class ProtocolReport:
    protocol: str
    n: int
    d: int
    p_accept: float
    bound: float | None = None
    max_overlap: float | None = None
    shots: int | None = None
    passed: bool = True
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "protocol": self.protocol,
            "n": self.n,
            "d": self.d,
            "p_accept": self.p_accept,
            "bound": self.bound,
            "max_overlap": self.max_overlap,
            "shots": self.shots,
            "passed": bool(self.passed),
        }
        out.update(self.details)
        return out


def _infer_n(psi: np.ndarray, d: int) -> int:
    n = round(math.log(len(psi), d))
    if d**n != len(psi):
        raise ValueError("state dimension is not a power of d")
    return n


# ---------------------------------------------------------------------------
# Bell difference sampling and the qubit test
# ---------------------------------------------------------------------------

def _qubit_char(psi: np.ndarray) -> tuple[int, np.ndarray]:
    """(n, c_psi) for a normalized qubit state."""
    n = _infer_n(psi, 2)
    return n, _pure_char(_unit_state(psi), n, 2)


def _bell_convolution(p: np.ndarray, n: int) -> np.ndarray:
    """q(a) = sum_x p(x) p(x + a) over Z_2^{2n}: one DFT over the 2n binary
    digits, squared and transformed back (over Z_2 the inverse DFT is the
    DFT over 4^n); rounding below zero is clipped."""
    conv = _digit_dft(_digit_dft(p, 2 * n, 2) ** 2, 2 * n, 2).real / 4**n
    np.maximum(conv, 0.0, out=conv)
    if abs(conv.sum() - 1.0) > 1e-10:
        raise AssertionError("Bell difference distribution does not normalize")
    return conv


def bell_difference_distribution(psi: np.ndarray, check: bool = True) -> np.ndarray:
    """q(a) = sum_x p_psi(x) p_psi(x + a) for a qubit state.

    When check is set the distribution is recomputed as tr[Pi_a psi^{x 4}]
    with Pi_a = 2^{-2n} sum_x (-1)^{[a,x]} W_x^{x 4}, i.e. 4^{-n} F(e^4) for
    the Weyl expectations e_x = <psi|W_x|psi> = 2^{n/2} c_psi(x) (real,
    since qubit W_x are Hermitian); the two routes must agree.  Both come
    from one c_psi.
    """
    n, c = _qubit_char(psi)
    conv = _bell_convolution(np.abs(c) ** 2, n)
    if check:
        e = c.real * 2 ** (n / 2)
        operator_route = symplectic_fourier(e**4, n, 2).real / 4**n
        if np.abs(conv - operator_route).max() > 1e-10:
            raise AssertionError("Bell difference routes disagree")
    return conv


def qubit_accept_probability(psi: np.ndarray) -> float:
    """p_accept of the six-copy qubit test: (1 + 2^{2n} sum_x p^3) / 2."""
    return qudit_accept_probability(psi, 3, 2)


def _six_copy_accept(p: np.ndarray, n: int) -> float:
    """(1 + 2^{2n} sum_x p^3) / 2 from the whole p_psi."""
    return float(0.5 * (1.0 + 4**n * (p**3).sum()))


def simulate_algorithm1(psi: np.ndarray, shots: int, seed: int) -> ProtocolReport:
    """Monte-Carlo of the six-copy qubit test.

    Each round samples a from the Bell difference distribution, then
    measures the Hermitian Weyl operator W_a twice on two fresh copies; the
    round accepts when both outcomes agree, which happens with probability
    (1 + <W_a>^2)/2.  Each measurement is one uniform draw against the
    outcome probability (1 + <W_a>)/2.  The distribution, the <W_a> and
    the analytic p_accept all come from one c_psi.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    rng = np.random.default_rng(seed)
    n, c = _qubit_char(psi)
    p = np.abs(c) ** 2
    q = _bell_convolution(p, n)
    draws = rng.choice(len(q), size=shots, p=q)
    p_plus = (1.0 + c.real[draws] * 2 ** (n / 2)) / 2
    u = rng.random((shots, 2))
    accepted = int(((u[:, 0] < p_plus) == (u[:, 1] < p_plus)).sum())
    p_emp = accepted / shots
    p_true = _six_copy_accept(p, n)
    sigma = math.sqrt(max(p_true * (1 - p_true), 1e-12) / shots)
    return ProtocolReport(
        protocol="qubit6-mc",
        n=n,
        d=2,
        p_accept=p_emp,
        shots=shots,
        passed=abs(p_emp - p_true) <= 4 * sigma + 1e-9,
        details={"p_analytic": p_true, "sigma": sigma},
    )


# ---------------------------------------------------------------------------
# qudit tests
# ---------------------------------------------------------------------------

def qudit_accept_probability(psi: np.ndarray, s: int, d: int) -> float:
    """p_accept of the 2s-copy qudit test: (1 + d^{(s-1)n} sum_x p^s) / 2.

    The sum runs over blocks of rows of c_psi; p_psi is never held whole.
    """
    if math.gcd(s, d) != 1:
        raise ValueError("s must be invertible mod d")
    n = _infer_n(psi, d)
    total = 0.0
    for _, rows in _pure_char_rows(_unit_state(psi), n, d):
        total += ((np.abs(rows) ** 2) ** s).sum()
    return float(0.5 * (1.0 + d ** ((s - 1) * n) * total))


def qudit_soundness_constant(d: int, s: int) -> float:
    """C with p_accept <= 1 - C eps^2: (1 - (1 - 1/4d^2)^{s-1}) / 2."""
    return (1.0 - (1.0 - 1.0 / (4 * d * d)) ** (s - 1)) / 2.0


def three_copy_accept_probability(psi: np.ndarray, d: int) -> float:
    """p_accept of the three-copy odd-d test: (1 + d^{2n} sum_x w^3) / 2."""
    if d % 6 not in (1, 5):
        raise ValueError("three-copy test needs d = 1, 5 mod 6")
    n = _infer_n(psi, d)
    w = wigner_state(psi, n, d)
    return float(0.5 * (1.0 + d ** (2 * n) * (w**3).sum()))


# ---------------------------------------------------------------------------
# uncertainty lemmas
# ---------------------------------------------------------------------------

def uncertainty_weyl(psi: np.ndarray, x, y, n: int, d: int) -> dict:
    """Commutation forced by two sharp Weyl expectations (delta = 1/2d)."""
    delta = 1.0 / (2 * d)
    psi = np.asarray(psi)
    targets, phases = weyl_action(np.array([x, y]), n, d)
    wx, wy = np.abs((psi[targets].conj() * phases * psi).sum(axis=1)) ** 2
    premise = wx > 1 - delta**2 and wy > 1 - delta**2
    commute = symplectic_form(x, y, d) == 0
    return {
        "premise": bool(premise),
        "commute": bool(commute),
        "violated": bool(premise and not commute),
        "expectations": (float(wx), float(wy)),
    }


def uncertainty_points(psi: np.ndarray, x, y, z, n: int, d: int) -> dict:
    """Commutation of W_{z-x}, W_{y-x} forced by three sharp point values."""
    if d % 2 == 0:
        raise ValueError("point-operator uncertainty needs odd d")
    w = wigner_state(psi, n, d) * d**n  # <psi|A_v|psi> = d^n w_psi(v)
    thresh = math.sqrt(1.0 - 1.0 / (2 * d * d))
    vals = [float(w[point_index(v, n, d)]) for v in (x, y, z)]
    premise = all(v > thresh for v in vals)
    diff1 = (np.asarray(z) - np.asarray(x)) % d
    diff2 = (np.asarray(y) - np.asarray(x)) % d
    commute = symplectic_form(diff1, diff2, d) == 0
    return {
        "premise": bool(premise),
        "commute": bool(commute),
        "violated": bool(premise and not commute),
        "values": vals,
    }


# ---------------------------------------------------------------------------
# negativity and the robust Hudson theorem
# ---------------------------------------------------------------------------

def _odd_char(psi: np.ndarray, d: int) -> tuple[int, np.ndarray]:
    """(n, c_psi), refusing even d."""
    if d % 2 == 0:
        raise ValueError("Wigner quantities need odd d")
    n = _infer_n(psi, d)
    return n, _pure_char(_unit_state(psi), n, d)


def _odd_wigner(psi: np.ndarray, d: int) -> tuple[int, np.ndarray]:
    """(n, w_psi), refusing even d."""
    n, c = _odd_char(psi, d)
    return n, _char_wigner(c, n, d)


def _sum_negativity(w: np.ndarray) -> float:
    """-sum of the negative values of w, checked against (||w||_1 - sum w)/2."""
    direct = float(-w[w < 0].sum())
    via_norm = 0.5 * (np.abs(w).sum() - w.sum())
    if abs(direct - via_norm) > 1e-12:
        raise AssertionError("sum-negativity routes disagree")
    return direct


def wigner_norm(psi: np.ndarray, d: int) -> float:
    """||psi||_W = sum_x |w_psi(x)|."""
    return float(np.abs(_odd_wigner(psi, d)[1]).sum())


def sum_negativity(psi: np.ndarray, d: int) -> float:
    """sn = sum over negative Wigner values of |w|; equals (||psi||_W - 1)/2."""
    return _sum_negativity(_odd_wigner(psi, d)[1])


def mana(psi: np.ndarray, d: int) -> float:
    return float(np.log(2 * sum_negativity(psi, d) + 1.0))


def robust_hudson_check(psi: np.ndarray, d: int) -> ProtocolReport:
    """1 - max_S |<S|psi>|^2 <= 9 d^2 sn(psi), plus the Hoelder chain.

    The negativity, the Wigner norm and the Hoelder sum share one w_psi;
    it and the largest stabilizer fidelity come from one c_psi.
    """
    n, c = _odd_char(psi, d)
    w = _char_wigner(c, n, d)
    sn = _sum_negativity(w)
    _, overlap = _max_fidelity(c, n, d)
    bound = 9 * d * d * sn
    q = d**n * w**2
    holder_ok = (q**2).sum() >= 1.0 / (d**n * np.abs(w).sum() ** 2) - 1e-12
    passed = (1.0 - overlap) <= bound + 1e-10 and holder_ok
    return ProtocolReport(
        protocol="robust-hudson",
        n=n,
        d=d,
        p_accept=float("nan"),
        bound=float(bound),
        max_overlap=float(overlap),
        passed=bool(passed),
        details={"sum_negativity": sn, "holder_ok": bool(holder_ok)},
    )


def max_mixed_state_check(psi: np.ndarray, d: int) -> bool:
    """The characteristic distribution never exceeds d^{-n}."""
    n = _infer_n(psi, d)
    return bool(char_distribution(psi, n, d).max() <= d ** (-n) + 1e-12)


# ---------------------------------------------------------------------------
# Clifford testing via Choi states
# ---------------------------------------------------------------------------

def choi_state(U: np.ndarray) -> np.ndarray:
    """(U (x) I)|Phi+> as a vector on the doubled system."""
    m = U.shape[0]
    if np.abs(U @ U.conj().T - np.eye(m)).max() > 1e-9:
        raise ValueError("input is not unitary")
    # vec of U/sqrt(m): |U> = sum_ij U_ij |i>|j> / sqrt(m)
    return U.reshape(-1) / math.sqrt(m)


def clifford_test(U: np.ndarray) -> ProtocolReport:
    """Six-copy stabilizer test applied to the Choi state of U (qubits).

    p_accept and the largest stabilizer fidelity come from one c_psi.
    """
    n, c = _qubit_char(choi_state(U))
    p = _six_copy_accept(np.abs(c) ** 2, n)
    _, overlap = _max_fidelity(c, n, 2)
    return ProtocolReport(
        protocol="clifford-test",
        n=n,
        d=2,
        p_accept=p,
        max_overlap=float(overlap),
        passed=bool(p <= 1.0 + 1e-10),
        details={"is_clifford": bool(p >= 1.0 - 1e-10)},
    )
