"""One command-line session through `cli.main`, writing reports to files.

`verify-all --profile full` is the command ROADMAP tracks end to end;
`enumerate-sigma --t 6 --d 2 --emit json` then writes a 6 MB report of
Sigma_{6,6}(2), and `test --protocol mc` runs 100000 Monte-Carlo shots.
The commands share one process, as `cli.main` calls in a session do, and
nothing is warmed up.  Outputs are checked against reference data
captured by capture_reference.py: record names, statuses and integer
values, and a digest of the Sigma_{6,6}(2) report that ignores basis
choice and order.  Floats are checked against their own bounds only.
"""

from __future__ import annotations

import json
import os

import numpy as np

from stabkit import cli, commutant

import checks
from workloads import Op

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(os.path.dirname(HERE), "reference", "cli.json")
SIGMA = (6, 2)
SHOTS = 100000

VERIFY_ALL = ["verify-all", "--profile", "full"]
ENUMERATE_SIGMA = ["enumerate-sigma", "--t", str(SIGMA[0]), "--d", str(SIGMA[1]), "--emit", "json"]

CACHED = {"commutant.stochastic_lagrangians": commutant.stochastic_lagrangians}


def int_fields(record: dict) -> dict:
    return {k: v for k, v in record.items()
            if isinstance(v, int) and not isinstance(v, bool)}


def check_verify_all(report: dict, reference: list) -> list:
    records = {r["name"]: r for r in report["records"]}
    for ref in reference:
        got = records.get(ref["name"])
        if got is None:
            return [("cli", f"verify-all lost record {ref['name']}")]
        if got["status"] != ref["status"] or int_fields(got) != ref["ints"]:
            return [("cli", f"verify-all record {ref['name']} changed: {got}")]
    for r in report["records"]:
        if r["status"] not in ("pass", "skip"):
            return [("cli", f"verify-all record {r['name']} has status {r['status']}")]
        m, b = r["measured"], r["bound"]
        if isinstance(m, float) and isinstance(b, (int, float)) and not m <= b:
            return [("cli", f"verify-all record {r['name']}: {m} above its bound {b}")]
    return []


def check_sigma_report(report: dict, reference: dict) -> list:
    record = report["records"][0]
    if record["status"] != "pass" or record["measured"] != reference["count"]:
        return [("cli", f"enumerate-sigma count record changed: {record}")]
    bases = np.array([T["basis"] for T in report["config"]["sigma"]], dtype=np.int64)
    if len(bases) != reference["count"] or checks.subspace_set_digest(bases, SIGMA[1]) != reference["digest"]:
        return [("cli", "enumerate-sigma report is not the reference set of subspaces")]
    return []


def check_mc_report(report: dict) -> list:
    record = report["records"][0]
    p_emp, p_true = record["measured"], record["bound"]
    if not 0.5 <= p_true <= 1.0 or abs(p_emp - p_true) > checks.hoeffding_tolerance(SHOTS):
        return [("cli", f"Monte-Carlo p = {p_emp}, analytic {p_true}")]
    return []


def build(rng, tracer, workdir):
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    mc_seed = int(rng.integers(2**31))
    test = ["test", "--protocol", "mc", "--seed", str(mc_seed), "--shots", str(SHOTS)]

    def command(argv):
        path = os.path.join(workdir, f"{argv[0]}.json")
        code = tracer.call(f"cli.{argv[0]}", cli.main, argv + ["--output", path])
        tracer.count("cli.output_bytes", os.path.getsize(path))
        return code, path

    def checked(check, exit_code_matters=True):
        def run_check(out):
            code, path = out
            with open(path) as fh:
                report = json.load(fh)
            if exit_code_matters and code != 0:
                return [("cli", f"exit code {code}")]
            return check(report)
        return run_check

    return [
        Op("cli.verify-all", lambda: command(VERIFY_ALL),
           checked(lambda r: check_verify_all(r, reference["verify_all"]))),
        Op("cli.enumerate-sigma", lambda: command(ENUMERATE_SIGMA),
           checked(lambda r: check_sigma_report(r, reference["sigma"]))),
        # The command's own pass/fail is a 4-sigma test, which a correct
        # program fails with probability ~6e-5; the Hoeffding check above
        # is the one whose false alarms are budgeted.
        Op("cli.test", lambda: command(test), checked(check_mc_report, False)),
    ]
