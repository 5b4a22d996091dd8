"""stabkit: Schur-Weyl machinery for the Clifford group.

Enumeration of stochastic Lagrangian subspaces and the commutant operators
R(T) they define, stabilizer moment formulas, weighted-orbit t-design
construction, stabilizer-testing protocols, a robust Hudson theorem, and
stabilizer de Finetti bounds.
"""

import importlib

from . import (
    clifford,
    commutant,
    definetti,
    gf,
    moments,
    phase_space,
    protocols,
    stabilizer,
)

__version__ = "0.1.0"

__all__ = [
    "cli",
    "clifford",
    "commutant",
    "definetti",
    "gf",
    "moments",
    "phase_space",
    "protocols",
    "stabilizer",
    "__version__",
]


def __getattr__(name):
    # `cli` loads on first use, so `python -m stabkit.cli` does not find it
    # already imported by the package
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
