"""Command-line front end and full-verification pipeline driver."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .gf import is_prime
from .phase_space import ResourceCapError

__all__ = ["RunConfig", "ReportBundle", "run", "emit", "main"]


@dataclass
class RunConfig:
    command: str
    d: int = 2
    t: int = 3
    n: int = 1
    s: int = 2
    seed: int | None = None
    shots: int = 10000
    profile: str = "quick"
    variant: str = "exp"
    protocol: str = "qubit6"
    emit_mode: str = "json"
    check: bool = False


@dataclass(frozen=True)
class _IntStack:
    """An (m, k, c) stack of integers in [0, d) that a report lists element
    by element: as `Subspace.to_json` dicts of canonical bases when
    `bases`, as plain k x c matrices otherwise.

    `to_json` gives that list, and `_write_json` writes its text from the
    stack a block of elements at a time.
    """

    stack: np.ndarray
    d: int
    bases: bool = True

    def to_json(self) -> list:
        matrices = self.stack.tolist()
        if not self.bases:
            return matrices
        c = self.stack.shape[2]
        return [{"ambient": c, "basis": basis, "d": self.d} for basis in matrices]


@dataclass
class ReportBundle:
    config: dict
    records: list = field(default_factory=list)
    wall_clock: float = 0.0
    versions: dict = field(default_factory=dict)

    def add(self, name: str, check_id: str, status: str,
            measured=None, bound=None, tolerance=None) -> None:
        self.records.append(
            {
                "name": name,
                "check_id": check_id,
                "status": status,
                "measured": measured,
                "bound": bound,
                "tolerance": tolerance,
            }
        )

    @property
    def ok(self) -> bool:
        return all(r["status"] in ("pass", "skip") for r in self.records)

    def to_json(self) -> dict:
        """The fields as plain data: an integer stack in the config becomes
        its list."""
        config = {k: v.to_json() if isinstance(v, _IntStack) else v
                  for k, v in self.config.items()}
        return dict(vars(self), config=config)


def _new_bundle(cfg: RunConfig) -> ReportBundle:
    cfgdict = {k: v for k, v in vars(cfg).items()}
    return ReportBundle(config=cfgdict, versions={"numpy": np.__version__})


def _haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unit vector: complex Gaussian entries, normalised."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# checks shared by the commands and verify-all: each returns
# (ok, measured, threshold)
# ---------------------------------------------------------------------------

def _check_sigma_count(t: int, d: int):
    """|Sigma_{t,t}(d)| as enumerated against prod_{k=0}^{t-2} (d^k + 1)."""
    from .commutant import sigma_count_formula, sigma_stack

    got = len(sigma_stack(t, d))
    want = sigma_count_formula(t, d)
    return got == want, got, want


def _check_commutator(t: int, d: int, n: int):
    """The largest residual of [R(T), U^{x t}] over Sigma_{t,t}(d) and the
    Clifford generators U on n qudits."""
    from .commutant import commutator_residuals, sigma_stack

    worst = float(commutator_residuals(sigma_stack(t, d), n, d).max())
    return worst < 1e-9, worst, 1e-9


def _check_moment_gap(t: int, n: int, d: int):
    """Frobenius distance of the stabilizer moment formula to the average
    over all stabilizer states."""
    from .moments import empirical_stab_moment, stab_moment_operator

    gap = float(np.linalg.norm(stab_moment_operator(t, n, d) - empirical_stab_moment(t, n, d)))
    return gap < 1e-10, gap, 1e-10


def _check_completeness(n: int, d: int):
    """The largest |p_accept - 1| of the stabilizer test over all stabilizer
    states: the qubit test for d = 2, the s = 2 qudit test otherwise."""
    from . import protocols as pr
    from .stabilizer import all_stabilizer_states

    worst = 0.0
    for psi in all_stabilizer_states(n, d):
        if d == 2:
            p = pr.qubit_accept_probability(psi)
        else:
            p = pr.qudit_accept_probability(psi, 2, d)
        worst = max(worst, abs(p - 1.0))
    return worst < 1e-12, worst, 1e-12


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_enumerate_sigma(cfg: RunConfig, rep: ReportBundle) -> None:
    from .commutant import sigma_stack

    ok, count, want = _check_sigma_count(cfg.t, cfg.d)
    rep.add("sigma-count", "count-identity", _status(ok), measured=count, bound=want)
    if cfg.emit_mode == "json":
        rep.config["sigma"] = _IntStack(sigma_stack(cfg.t, cfg.d), cfg.d)


def _cmd_enumerate_o(cfg: RunConfig, rep: ReportBundle) -> None:
    from .commutant import orthogonal_stochastic_group

    group = orthogonal_stochastic_group(cfg.t, cfg.d)
    rep.add("o-count", "group-enumeration", "pass", measured=len(group))
    if cfg.emit_mode == "json":
        rep.config["group"] = _IntStack(np.stack(group), cfg.d, bases=False)


def _cmd_verify_commutant(cfg: RunConfig, rep: ReportBundle) -> None:
    ok, worst, tol = _check_commutator(cfg.t, cfg.d, cfg.n)
    rep.add("commutant", "clifford-commutator", _status(ok), measured=worst, tolerance=tol)


def _cmd_double_cosets(cfg: RunConfig, rep: ReportBundle) -> None:
    from .commutant import double_cosets

    cosets = double_cosets(cfg.t, cfg.d)
    sizes = [c["size"] for c in cosets]
    rep.add("double-cosets", "orbit-closure", _status(len(cosets) <= cfg.t),
            measured=sizes, bound=cfg.t)


def _cmd_moments(cfg: RunConfig, rep: ReportBundle) -> None:
    from .moments import stab_moment_operator

    if cfg.check:
        ok, gap, tol = _check_moment_gap(cfg.t, cfg.n, cfg.d)
        rep.add("moment-formula", "ensemble-average", _status(ok), measured=gap, tolerance=tol)
    else:
        formula = stab_moment_operator(cfg.t, cfg.n, cfg.d)
        rep.add("moment-formula", "formula-evaluation", "pass",
                measured=float(np.trace(formula).real))


def _design_fiducials(t: int, n: int, d: int, seed: int | None) -> list[np.ndarray]:
    """The fiducials of `stabkit design`: the `qutrit_fiducial_angle` state
    for qutrit 3-designs; |0...0>, the T-state product and six seeded Haar
    states for qubits at t >= 4; eight seeded Haar states otherwise."""
    from .moments import qutrit_fiducial_angle
    from .phase_space import kron_power_vec

    rng = np.random.default_rng(seed if seed is not None else 0)
    if d == 3 and t == 3:
        theta = qutrit_fiducial_angle(n)
        return [kron_power_vec(np.array([np.cos(theta), -np.sin(theta), 0.0]), n)]
    if d == 2 and t >= 4:
        t_state = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        products = [kron_power_vec(single, n) for single in (np.array([1.0, 0.0]), t_state)]
        return products + [_haar_state(rng, 2**n) for _ in range(6)]
    return [_haar_state(rng, d**n) for _ in range(8)]


def _cmd_design(cfg: RunConfig, rep: ReportBundle) -> None:
    from .moments import _DESIGN_ATOL, InfeasibleDesign, find_design_weights, mixture_design_gap

    fiducials = _design_fiducials(cfg.t, cfg.n, cfg.d, cfg.seed)
    try:
        weights = find_design_weights(fiducials, cfg.t, cfg.n, cfg.d)
    except InfeasibleDesign as exc:
        # measured is the least constraint residual over non-negative weights
        rep.add("design", "weighted-orbit-design", "fail",
                measured=exc.residual, tolerance=_DESIGN_ATOL)
        return
    gap = mixture_design_gap(fiducials, weights, cfg.t, cfg.n, cfg.d)
    rep.add("design", "weighted-orbit-design", _status(gap < 1e-8),
            measured=gap, bound=int((weights > 0).sum()), tolerance=1e-8)


def _cmd_test(cfg: RunConfig, rep: ReportBundle) -> None:
    from . import protocols as pr

    psi = _haar_state(np.random.default_rng(cfg.seed), cfg.d**cfg.n)
    if cfg.protocol == "qubit6":
        from .stabilizer import max_stabilizer_overlap

        p = pr.qubit_accept_probability(psi)
        _, ov = max_stabilizer_overlap(psi, cfg.n, cfg.d)
        bound = 1 - (1 - ov) ** 2 / 4
        rep.add("qubit-test", "soundness-bound", _status(p <= bound + 1e-12),
                measured=p, bound=bound)
    elif cfg.protocol == "qudit":
        p = pr.qudit_accept_probability(psi, cfg.s, cfg.d)
        rep.add("qudit-test", "accept-probability", "pass", measured=p)
    elif cfg.protocol == "three-copy":
        p = pr.three_copy_accept_probability(psi, cfg.d)
        rep.add("three-copy-test", "accept-probability", "pass", measured=p)
    else:  # mc
        out = pr.simulate_algorithm1(psi, cfg.shots, cfg.seed)
        rep.add("qubit-mc", "monte-carlo", _status(out.passed),
                measured=out.p_accept, bound=out.details["p_analytic"])


def _cmd_hudson(cfg: RunConfig, rep: ReportBundle) -> None:
    from . import protocols as pr

    rng = np.random.default_rng(cfg.seed)
    worst = -np.inf
    for _ in range(100):
        psi = _haar_state(rng, cfg.d**cfg.n)
        out = pr.robust_hudson_check(psi, cfg.d)
        slack = (1 - out.max_overlap) - out.bound
        worst = max(worst, slack)
        if not out.passed:
            rep.add("hudson", "overlap-vs-negativity", "fail",
                    measured=1 - out.max_overlap, bound=out.bound)
            return
    rep.add("hudson", "overlap-vs-negativity", "pass", measured=worst, bound=0.0)


def _cmd_definetti(cfg: RunConfig, rep: ReportBundle) -> None:
    from . import definetti as df

    seed = cfg.seed if cfg.seed is not None else 0
    if cfg.variant == "exp":
        data = df.gram(cfg.n, cfg.d, cfg.t)
        alpha = df.random_span_coefficients(data, seed)
        out = df.exp_definetti_check(alpha, cfg.s, t=cfg.t, n=cfg.n, d=cfg.d)
    else:  # anti
        inp = df.make_invariant_state(cfg.t, cfg.n, cfg.d, "perm+anti", seed)
        out = df.anti_definetti_check(inp, cfg.s)
    rep.add(f"definetti-{cfg.variant}", "reduced-state-distance", _status(out["passed"]),
            measured=out["distance"], bound=out["bound"])
    rep.config["vacuous_bound"] = out["vacuous"]


# (name, check_id, check, arguments) of verify-all, in order; the full
# profile runs the quick checks, then these
_QUICK_CHECKS = (
    ("sigma-count-(3,3)", "count-identity", _check_sigma_count, (3, 3)),
    ("sigma-count-(4,2)", "count-identity", _check_sigma_count, (4, 2)),
    ("commutant-(3,3,1)", "clifford-commutator", _check_commutator, (3, 3, 1)),
    ("moment-(3,1,3)", "ensemble-average", _check_moment_gap, (3, 1, 3)),
    ("completeness-qubit-n1", "perfect-completeness", _check_completeness, (1, 2)),
    ("completeness-qutrit-n1", "perfect-completeness", _check_completeness, (1, 3)),
)
_FULL_CHECKS = _QUICK_CHECKS + (
    ("sigma-count-(4,3)", "count-identity", _check_sigma_count, (4, 3)),
    ("sigma-count-(6,2)", "count-identity", _check_sigma_count, (6, 2)),
    ("commutant-(4,2,1)", "clifford-commutator", _check_commutator, (4, 2, 1)),
    ("commutant-(4,2,2)", "clifford-commutator", _check_commutator, (4, 2, 2)),
    ("moment-(4,1,2)", "ensemble-average", _check_moment_gap, (4, 1, 2)),
    ("moment-(4,2,2)", "ensemble-average", _check_moment_gap, (4, 2, 2)),
    ("moment-(6,1,2)", "ensemble-average", _check_moment_gap, (6, 1, 2)),
    ("completeness-qubit-n2", "perfect-completeness", _check_completeness, (2, 2)),
)
_PROFILES = {"quick": _QUICK_CHECKS, "full": _FULL_CHECKS}


def _cmd_verify_all(cfg: RunConfig, rep: ReportBundle) -> None:
    """Every check of the profile; the threshold goes into `bound`, and a
    check that hits the dimension cap is skipped."""
    for name, check_id, check, args in _PROFILES[cfg.profile]:
        try:
            ok, measured, bound = check(*args)
        except ResourceCapError as exc:
            rep.add(name, check_id, "skip", measured=str(exc))
            continue
        rep.add(name, check_id, _status(ok), measured=measured, bound=bound)


# each command and the RunConfig fields it reads, which are its options
# besides --emit and --output
_COMMANDS = {
    "enumerate-sigma": (_cmd_enumerate_sigma, ("t", "d")),
    "enumerate-o": (_cmd_enumerate_o, ("t", "d")),
    "verify-commutant": (_cmd_verify_commutant, ("t", "d", "n")),
    "double-cosets": (_cmd_double_cosets, ("t", "d")),
    "moments": (_cmd_moments, ("t", "n", "d", "check")),
    "design": (_cmd_design, ("t", "n", "d", "seed")),
    "test": (_cmd_test, ("protocol", "d", "n", "s", "seed", "shots")),
    "hudson": (_cmd_hudson, ("d", "n", "seed")),
    "definetti": (_cmd_definetti, ("variant", "t", "n", "d", "s", "seed")),
    "verify-all": (_cmd_verify_all, ("profile",)),
}
_PROTOCOLS = ("qubit6", "qudit", "three-copy", "mc")
_VARIANTS = ("exp", "anti")

# argparse settings of each option; every default is that of RunConfig
_OPTIONS = {
    "t": {"type": int},
    "d": {"type": int},
    "n": {"type": int},
    "s": {"type": int},
    "seed": {"type": int},
    "shots": {"type": int},
    "profile": {"choices": tuple(_PROFILES)},
    "variant": {"choices": _VARIANTS},
    "protocol": {"choices": _PROTOCOLS},
    "check": {"action": "store_true"},
}


def _invalid_argument(cfg: RunConfig) -> str | None:
    """Why the arguments in cfg are invalid, or None if they are valid."""
    if cfg.command not in _COMMANDS:
        return f"command={cfg.command!r} is not one of {', '.join(_COMMANDS)}"
    if not is_prime(cfg.d):
        return f"d={cfg.d} is not prime"
    for name in ("t", "n", "s"):
        if getattr(cfg, name) < 1:
            return f"{name}={getattr(cfg, name)} is below 1"
    if cfg.seed is not None and cfg.seed < 0:
        return f"seed={cfg.seed} is below 0"
    if cfg.command == "test" and cfg.protocol == "qudit" and cfg.s % cfg.d == 0:
        return f"s={cfg.s} is not invertible mod d={cfg.d}"
    if cfg.command == "test" and cfg.protocol == "mc" and cfg.shots < 1:
        return f"shots={cfg.shots} is below 1"
    if cfg.command == "definetti" and cfg.variant == "anti":
        if cfg.d != 2 or cfg.t % 6 or cfg.s % 6:
            return (f"d={cfg.d}, t={cfg.t}, s={cfg.s}: the anti variant needs d = 2 "
                    "and t, s multiples of 6")
    if cfg.command == "definetti" and cfg.s > cfg.t:
        return f"s={cfg.s} exceeds t={cfg.t}: the reduced state keeps s of the t copies"
    if cfg.command == "test" and cfg.protocol == "three-copy" and cfg.d % 6 not in (1, 5):
        return f"d={cfg.d}: the three-copy test needs d = 1, 5 mod 6"
    if cfg.command == "hudson" and cfg.d == 2:
        return f"d={cfg.d}: robust Hudson needs odd d"
    if cfg.command in ("test", "hudson") and cfg.seed is None:
        return f"seed is missing: the {cfg.command} command samples states and needs --seed"
    if cfg.command == "test" and cfg.protocol in ("qubit6", "mc") and cfg.d != 2:
        return f"d={cfg.d}: protocol {cfg.protocol!r} is a qubit test and needs d = 2"
    if cfg.command == "test" and cfg.protocol not in _PROTOCOLS:
        return f"protocol={cfg.protocol!r} is not one of {', '.join(_PROTOCOLS)}"
    if cfg.command == "definetti" and cfg.variant not in _VARIANTS:
        return f"variant={cfg.variant!r} is not one of {', '.join(_VARIANTS)}"
    if cfg.command == "verify-all" and cfg.profile not in _PROFILES:
        return f"profile={cfg.profile!r} is not one of {', '.join(_PROFILES)}"
    return None


def run(cfg: RunConfig) -> ReportBundle:
    """Run one command; an invalid size or a dimension-cap hit becomes a
    single failed record."""
    rep = _new_bundle(cfg)
    start = time.time()
    invalid = _invalid_argument(cfg)
    if invalid is not None:
        rep.add(cfg.command, "invalid-argument", "fail", measured=invalid)
    else:
        try:
            _COMMANDS[cfg.command][0](cfg, rep)
        except ResourceCapError as exc:
            rep.add(cfg.command, "resource-cap", "fail", measured=str(exc))
    rep.wall_clock = time.time() - start
    return rep


# elements of an integer stack per block of JSON text
_STACK_BLOCK = 256


def _stack_text(ints: _IntStack, newline: str, stream) -> None:
    """Write the JSON text of ints.to_json() nested at `newline` to a
    binary stream, one block of `_STACK_BLOCK` elements at a time.

    Every element has the same layout: one row of tokens holds the
    separators of an element, the same for all, between the text of its
    entries, looked up from a table of str(v) for v < d.  Each block's
    tokens are joined once and written at once.
    """
    m, k, c = ints.stack.shape
    item, key = newline + "  ", newline + "    "
    matrix = key if ints.bases else item  # where the matrix's brackets stand
    row, entry = matrix + "  ", matrix + "    "
    head, tail = "", row + "]" + matrix + "]"
    if ints.bases:
        head = "{" + key + f'"ambient": {c},' + key + '"basis": '
        tail += "," + key + f'"d": {ints.d}' + item + "}"
    seps = np.full(k * c, "," + entry, dtype=object)
    seps[::c] = row + "]," + row + "[" + entry
    seps[0] = head + "[" + row + "[" + entry
    tokens = np.empty((_STACK_BLOCK, 2 * k * c + 1), dtype=object)
    tokens[:, :-1:2] = seps
    tokens[:, -1] = tail + "," + item
    digits = np.array([str(v) for v in range(ints.d)], dtype=object)
    stream.write(("[" + item).encode())
    for lo in range(0, m, _STACK_BLOCK):
        block = ints.stack[lo:lo + _STACK_BLOCK].reshape(-1, k * c)
        part = tokens[:len(block)]
        part[:, 1::2] = digits[block]
        if lo + len(block) == m:
            part[-1, -1] = tail  # no separator after the last element
        stream.write("".join(part.ravel().tolist()).encode())
    stream.write((newline + "]").encode())


def _write_json(report: ReportBundle, stream) -> None:
    """Write the JSON report to a binary stream.

    The bytes are those of json.dumps(report.to_json(), indent=2,
    sort_keys=True, default=str) plus a newline, with the wall clock
    dropped.  json.dumps writes the report with a marker string in place
    of each integer stack, one that no string of the report equals, and
    `_stack_text` writes the stack there, so its text is never held whole.
    """
    stacks, marker = [], ""

    def default(obj):
        if isinstance(obj, _IntStack):
            stacks.append(obj)
            return marker
        return str(obj)

    # the wall clock is dropped for determinism
    payload = dict(vars(report), wall_clock=None)
    for n in itertools.count():
        marker = f"\ue000stack {n}\ue000"
        stacks.clear()
        text = json.dumps(payload, indent=2, sort_keys=True, default=default) + "\n"
        parts = text.split(json.dumps(marker))
        if len(parts) == len(stacks) + 1:  # else a string of the report is the marker
            break
    stream.write(parts[0].encode())
    for ints, before, after in zip(stacks, parts, parts[1:]):
        line = before[before.rfind("\n") + 1:]
        _stack_text(ints, "\n" + " " * (len(line) - len(line.lstrip(" "))), stream)
        stream.write(after.encode())


def emit(report: ReportBundle, fmt: str = "json") -> bytes:
    if fmt == "json":
        buf = io.BytesIO()
        _write_json(report, buf)
        return buf.getvalue()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=["name", "check_id", "status", "measured", "bound", "tolerance"],
        )
        writer.writeheader()
        for record in report.records:
            writer.writerow(record)
        return buf.getvalue().encode()
    if fmt == "text-table":
        lines = [f"{'name':<28} {'status':<6} measured"]
        for r in report.records:
            lines.append(f"{r['name']:<28} {r['status']:<6} {r['measured']}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stabkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        # no abbreviations: --s must not stand for --seed where there is no --s
        p = sub.add_parser(name, allow_abbrev=False)
        # an option left out keeps its RunConfig default
        for option in options:
            p.add_argument(f"--{option}", default=argparse.SUPPRESS, **_OPTIONS[option])
        p.add_argument("--emit", dest="emit_mode", default=argparse.SUPPRESS,
                       choices=["json", "csv", "text-table", "count"])
        p.add_argument("--output", default=None)
    args = vars(parser.parse_args(argv))
    output = args.pop("output")
    cfg = RunConfig(**args)
    report = run(cfg)
    sink = open(output, "wb") if output else contextlib.nullcontext(sys.stdout.buffer)
    with sink as fh:
        if cfg.emit_mode == "json":
            _write_json(report, fh)
        elif cfg.emit_mode == "count":
            fh.write(f"{report.records[0]['measured']}\n".encode())
        else:
            fh.write(emit(report, cfg.emit_mode))
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
