"""Write reference/cli.json, the reference data of the `cli` workload.

It records the names, statuses and integer values of the records of
`verify-all --profile full` and the size and set digest of the
Sigma_{6,6}(2) report, as the current source tree produces them.  Run it
from the repository root only when a change to these outputs is intended:

    python3 perfbench/capture_reference.py
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

from stabkit import cli  # noqa: E402

import checks  # noqa: E402
from workloads.cli import ENUMERATE_SIGMA, REFERENCE, SIGMA, VERIFY_ALL, int_fields  # noqa: E402


def _report(argv, workdir):
    path = os.path.join(workdir, "out.json")
    if cli.main(argv + ["--output", path]) != 0:
        raise SystemExit(f"{' '.join(argv)} failed")
    with open(path) as fh:
        return json.load(fh)


def main() -> int:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        verify = _report(VERIFY_ALL, workdir)
        sigma = _report(ENUMERATE_SIGMA, workdir)
    bases = np.array([T["basis"] for T in sigma["config"]["sigma"]], dtype=np.int64)
    reference = {
        "verify_all": [
            {"name": r["name"], "status": r["status"], "ints": int_fields(r)}
            for r in verify["records"]
        ],
        "sigma": {"count": len(bases), "digest": checks.subspace_set_digest(bases, SIGMA[1])},
    }
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
