"""A seeded stream of input states, each run through its family's battery.

Each repetition draws the same number of states of each family, so the
work per repetition does not depend on the seed, only the states do:

- qubits at n = 3, 4 and 6, about a third of them stabilizer states made
  from random Clifford words: characteristic distribution, six-copy
  accept probability, Bell difference distribution (with the dual-route
  check for n <= 4), the Monte-Carlo six-copy test and, at n = 3, the
  largest stabilizer overlap;
- Haar-random two-qutrit states: Wigner function, the qudit test and the
  robust Hudson check;
- Haar-random states of two d = 5 qudits: Wigner function, the qudit
  test and the three-copy test;
- random one-qubit Clifford words: Clifford testing of their Choi states.

Warm-up runs every battery once on fixed inputs, through the same public
calls, so the timed phase sees filled caches and enumeration happens only
in set-up.  The working set grows from kilobytes at n = 3 to the 268 MB
Weyl stack at n = 6.
"""

from __future__ import annotations

import numpy as np

from stabkit import clifford, phase_space, protocols, stabilizer

import checks
from spans import Tracer
from workloads import Op

# family -> (number per repetition, of which stabilizer states)
QUBITS = {3: (12, 4), 4: (6, 2), 6: (2, 1)}
QUDITS = {3: 9, 5: 12}  # d -> number of two-qudit states
CLIFFORD_WORDS = 9
SHOTS = 300
WARMUP_SEED = 20171222

CACHED = {"stabilizer.all_stabilizer_states": stabilizer.all_stabilizer_states}


def _haar(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def qubit_battery(tracer, n, stab_seed, psi, shots_seed):
    if stab_seed is not None:
        word_rng = np.random.default_rng(stab_seed)
        _, U = tracer.call("clifford.random_clifford", clifford.random_clifford, n, 2, word_rng)
        psi = U[:, 0]
    p = tracer.call("phase_space.char_distribution", phase_space.char_distribution, psi, n, 2)
    tracer.count("phase_space.char_distribution.points", p.size)
    accept = tracer.call("protocols.qubit_accept_probability", protocols.qubit_accept_probability, psi)
    q = tracer.call("protocols.bell_difference_distribution", protocols.bell_difference_distribution,
                    psi, check=n <= 4)
    mc = tracer.call("protocols.simulate_algorithm1", protocols.simulate_algorithm1,
                     psi, SHOTS, shots_seed)
    tracer.count("protocols.simulate_algorithm1.shots", mc.shots)
    overlap = None
    if n == 3:
        _, overlap = tracer.call("stabilizer.max_stabilizer_overlap",
                                 stabilizer.max_stabilizer_overlap, psi, n, 2)
    return {"n": n, "stab": stab_seed is not None, "p": p, "accept": accept, "q": q,
            "mc": mc, "overlap": overlap}


def check_qubit(out) -> list:
    n, p, accept, q, mc = out["n"], out["p"], out["accept"], out["q"], out["mc"]
    if abs(p.sum() - 1.0) > 1e-10 or p.min() < -1e-15 or p.max() > 2.0**-n + 1e-12:
        return [("phase_space", "characteristic distribution: sum != 1 or p > 2^-n")]
    if abs(accept - 0.5 * (1.0 + 4.0**n * (p**3).sum())) > 1e-12:
        return [("protocols", "accept probability disagrees with sum_x p^3")]
    if out["stab"] and abs(accept - 1.0) > 1e-12:
        return [("protocols", f"stabilizer input accepted with p = {accept}")]
    if not 0.5 - 1e-12 <= accept <= 1.0 + 1e-12:
        return [("protocols", f"accept probability {accept} outside [1/2, 1]")]
    if out["overlap"] is not None:
        ov = out["overlap"]
        if not 0.0 <= ov <= 1.0 + 1e-12 or accept > 1.0 - (1.0 - ov) ** 2 / 4.0 + 1e-12:
            return [("protocols", f"accept {accept} breaks the soundness bound at overlap {ov}")]
    if abs(q.sum() - 1.0) > 1e-10 or q.min() < -1e-12 or abs(q[0] - (p**2).sum()) > 1e-12:
        return [("protocols", "Bell difference distribution: sum != 1 or q(0) != sum p^2")]
    if mc.shots != SHOTS or abs(mc.details["p_analytic"] - accept) > 1e-12:
        return [("protocols", "Monte-Carlo run used another shot count or analytic value")]
    if abs(mc.p_accept - accept) > checks.hoeffding_tolerance(SHOTS):
        return [("protocols", f"Monte-Carlo p = {mc.p_accept}, analytic {accept}")]
    return []


def qudit_battery(tracer, d, psi):
    w = tracer.call("phase_space.wigner_state", phase_space.wigner_state, psi, 2, d)
    tracer.count("phase_space.wigner_state.points", w.size)
    accept = tracer.call("protocols.qudit_accept_probability", protocols.qudit_accept_probability,
                         psi, 2, d)
    out = {"d": d, "w": w, "accept": accept, "three": None, "hudson": None}
    if d == 3:
        out["hudson"] = tracer.call("protocols.robust_hudson_check", protocols.robust_hudson_check,
                                    psi, d)
    else:
        out["three"] = tracer.call("protocols.three_copy_accept_probability",
                                   protocols.three_copy_accept_probability, psi, d)
    return out


def check_qudit(out) -> list:
    if abs(out["w"].sum() - 1.0) > 1e-10:
        return [("phase_space", "Wigner function does not sum to 1")]
    for name in ("accept", "three"):
        p = out[name]
        if p is not None and not 0.0 <= p <= 1.0 + 1e-12:
            return [("protocols", f"{name} probability {p} outside [0, 1]")]
    h = out["hudson"]
    if h is not None and not (h.passed and 0.0 <= h.max_overlap <= 1.0 + 1e-12
                              and 1.0 - h.max_overlap <= h.bound + 1e-10):
        return [("protocols", "robust Hudson bound fails")]
    return []


def clifford_battery(tracer, seed):
    word_rng = np.random.default_rng(seed)
    _, U = tracer.call("clifford.random_clifford", clifford.random_clifford, 1, 2, word_rng)
    return tracer.call("protocols.clifford_test", protocols.clifford_test, U)


def check_clifford(out) -> list:
    if abs(out.p_accept - 1.0) > 1e-12 or not out.details["is_clifford"]:
        return [("protocols", f"Clifford word accepted with p = {out.p_accept}")]
    if abs(out.max_overlap - 1.0) > 1e-10:
        return [("protocols", "Choi state of a Clifford is not a stabilizer state")]
    return []


def build(rng, tracer, workdir):
    stream = []
    for n, (count, stab) in QUBITS.items():
        for k in range(count):
            stab_seed = _seed(rng) if k < stab else None
            psi = None if k < stab else _haar(rng, 2**n)
            stream.append(("qubit", (n, stab_seed, psi, _seed(rng))))
    for d, count in QUDITS.items():
        stream += [("qudit", (d, _haar(rng, d * d))) for _ in range(count)]
    stream += [("clifford", (_seed(rng),)) for _ in range(CLIFFORD_WORDS)]
    stream = [stream[i] for i in rng.permutation(len(stream))]

    batteries = {
        "qubit": (qubit_battery, check_qubit),
        "qudit": (qudit_battery, check_qudit),
        "clifford": (clifford_battery, check_clifford),
    }

    # warm-up: each battery once on fixed inputs (a stabilizer state for
    # qubits, which takes every qubit call), without tracing
    warm = np.random.default_rng(WARMUP_SEED)
    silent = Tracer(False)
    for n in QUBITS:
        qubit_battery(silent, n, _seed(warm), None, 0)
    for d in QUDITS:
        qudit_battery(silent, d, _haar(warm, d * d))
    clifford_battery(silent, _seed(warm))

    ops = []
    for family, args in stream:
        battery, check = batteries[family]
        ops.append(Op(f"protocols.{family}", lambda b=battery, a=args: b(tracer, *a), check))
    return ops
