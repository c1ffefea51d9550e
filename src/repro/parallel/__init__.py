"""Parallel runtime: simulated MPI and decomposed solves.

The package exports the *functional* layer (:mod:`~repro.parallel.comm`,
:mod:`~repro.parallel.exchange`, :mod:`~repro.parallel.driver`,
:mod:`~repro.parallel.driver3d`) that actually runs spatially decomposed
MOC solves — the Jacobi-style boundary-flux exchange of paper
Sec. 2.1/3.1 — through a pluggable execution engine (:mod:`repro.engine`):
the in-process deterministic communicator, or real worker processes over
shared memory.

The *timing* layer, :mod:`repro.parallel.timeline`, runs the paper-scale
experiments (Figs. 9, 11, 12) from the Sec. 3.3 performance model over
:mod:`repro.hardware`. It is not re-exported here, so a solve does not
import the paper model: import it from its own module.
"""

from repro.parallel.comm import SimComm, CommStats
from repro.parallel.exchange import InterfaceExchange, match_interface_tracks
from repro.parallel.driver import DecomposedSolver
from repro.parallel.driver3d import ZDecomposedSolver, Route3D

__all__ = [
    "SimComm",
    "CommStats",
    "InterfaceExchange",
    "match_interface_tracks",
    "DecomposedSolver",
    "ZDecomposedSolver",
    "Route3D",
]
