"""Self-test: every workload's checks pass its real outputs and flag corrupted ones.

For each workload this runs the operations of one repetition, checks that
every real output passes, then corrupts chosen outputs (a wrong count, a
flipped status, a perturbed accept probability, ...) and checks that each
corruption is flagged.  Run from the repository root:

    python3 perfbench/selftest.py [WORKLOAD ...]

It exits nonzero if a real output fails its check or a corruption passes.
"""

from __future__ import annotations

import copy
import dataclasses
import importlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import NAMES  # noqa: E402


def _drop_last_row(T):
    return type(T)(T.basis[:-1], T.d, T.ambient)


def _with_entry(G, i, j, factor):
    G = G.copy()
    G[i, j] *= factor
    return G


def _json_edit(edit):
    """Corrupt a command's report file; the output is (exit code, path)."""
    def corrupt(out):
        code, path = out
        with open(path) as fh:
            report = json.load(fh)
        edit(report)
        bad = path + ".corrupt"
        with open(bad, "w") as fh:
            json.dump(report, fh)
        return code, bad
    return corrupt


def _flip_status(report):
    report["records"][0]["status"] = "fail"


def _wrong_int(report):
    report["records"][0]["measured"] += 1


def _wrong_basis(report):
    basis = report["config"]["sigma"][0]["basis"]
    basis[0][-1] ^= 1


def _perturb_mc(report):
    report["records"][0]["measured"] -= 0.05


# workload -> [(operation name, what is corrupted, corruption)]; a corruption
# returning None does not apply to that output, and the next output of the
# same operation is tried.
CORRUPTIONS = {
    "enumerate": [
        ("commutant.stochastic_lagrangians(6, 2)", "wrong count", lambda out: out[:-1]),
        ("stabilizer.lagrangians(3, 2)", "repeated element", lambda out: out[:-1] + out[:1]),
        ("commutant.orthogonal_stochastic_group(4, 3)", "non-member",
         lambda out: (2 * np.eye(4, dtype=np.int64),) + out[1:]),
        ("moments.sigma_classes(5, 2)", "lost class", lambda out: out[1:]),
        ("commutant.double_cosets(4, 3)", "lost coset", lambda out: out[1:]),
        ("gf.Subspace", "other subspace", _drop_last_row),
    ],
    "algebra": [
        ("commutant.R_gram", "wrong diagonal", lambda G: _with_entry(G, 0, 0, 3.0)),
        ("gf.Subspace.intersect", "wrong dimension", lambda dim: dim + 1),
        ("commutant.compose", "wrong constant", lambda out: (out[0], out[1] + 1)),
        ("commutant.commutes_with_clifford", "failed commutation",
         lambda out: dict(out, max_norm=1e-3, passed=False)),
        ("moments.stab_moment_operator", "moment gap", lambda gap: 1e-6),
        ("moments.find_design_weights", "design gap", lambda out: (out[0], 1e-3)),
        ("moments.orbit_moment_vector", "perturbed moments", lambda m: m + 1e-6),
        ("definetti.exp_definetti_check", "distance above bound",
         lambda out: (out[0], dict(out[1], distance=2 * out[1]["bound"] + 1.0))),
        ("definetti.anti_definetti_check", "distance above bound",
         lambda out: (out[0], dict(out[1], distance=2 * out[1]["bound"] + 1.0))),
    ],
    "protocols": [
        ("protocols.qubit", "perturbed p_accept", lambda out: dict(out, accept=out["accept"] - 1e-3)),
        ("protocols.qubit", "perturbed Monte-Carlo p_accept",
         lambda out: dict(out, mc=dataclasses.replace(out["mc"], p_accept=out["mc"].p_accept - 0.3))),
        ("protocols.qubit", "unnormalized distribution", lambda out: dict(out, p=out["p"] * 1.01)),
        ("protocols.qudit", "unnormalized Wigner function", lambda out: dict(out, w=out["w"] * 1.01)),
        ("protocols.qudit", "flipped Hudson status",
         lambda out: out["hudson"] and dict(out, hudson=dataclasses.replace(out["hudson"], passed=False))),
        ("protocols.clifford", "perturbed p_accept", lambda out: dataclasses.replace(out, p_accept=0.99)),
    ],
    "cli": [
        ("cli.verify-all", "flipped status", _json_edit(_flip_status)),
        ("cli.verify-all", "wrong count", _json_edit(_wrong_int)),
        ("cli.enumerate-sigma", "wrong count", _json_edit(_wrong_int)),
        ("cli.enumerate-sigma", "wrong subspace", _json_edit(_wrong_basis)),
        ("cli.test", "perturbed p_accept", _json_edit(_perturb_mc)),
    ],
}


def selftest(workload: str, workdir: str) -> list[str]:
    module = importlib.import_module(f"workloads.{workload}")
    errors = []
    outputs = []
    for op in module.build(np.random.default_rng([0, 0]), Tracer(False), workdir):
        out = op.run()
        outputs.append((op, out))
        problems = op.check(out)
        if problems:
            errors.append(f"{workload}: real output of {op.name} fails: {problems}")
    for name, what, corrupt in CORRUPTIONS[workload]:
        op, bad = next((op, bad) for op, out in outputs
                       if op.name == name and (bad := corrupt(copy.copy(out))) is not None)
        flagged = op.check(bad)
        print(f"{workload:10s} {name:45s} {what:32s} {'flagged' if flagged else 'NOT FLAGGED'}")
        if not flagged:
            errors.append(f"{workload}: {what} in {name} is not flagged")
    return errors


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or NAMES
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    errors = []
    for workload in names:
        with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
            errors += selftest(workload, workdir)
    for error in errors:
        print(error, file=sys.stderr)
    print("self-test", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
