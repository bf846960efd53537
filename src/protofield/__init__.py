"""protofield: one block-skew first-order operator on tensor-field grids,
and the classical linear systems of mathematical physics derived from it
by projection.

The package builds the operator [[0, -nabla*], [nabla, 0]] on the full
stack of tensor ranks over a flat grid, projects it onto subspaces to
obtain acoustics, heat conduction, elasticity, Maxwell, Dirac, transport,
thermo-elasticity, plate and beam models, verifies the structural
identities relating them numerically, and integrates the resulting
systems in time with energy and causality diagnostics.
"""

import importlib

from . import catalog, evolve, flatgrid, linops, matlaw, subspaces, verify

__all__ = [
    "catalog",
    "cli",
    "evolve",
    "flatgrid",
    "linops",
    "matlaw",
    "subspaces",
    "verify",
]

__version__ = "0.1.0"


def __getattr__(name):
    # the command line is loaded on first use: imported eagerly, it is already
    # in sys.modules when `python -m protofield.cli` runs it, and runpy warns
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
