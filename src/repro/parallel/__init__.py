"""Parallel runtime: simulated MPI, decomposed solves, scaling timelines.

Two layers, matching the reproduction strategy in DESIGN.md:

* a *functional* layer (:mod:`~repro.parallel.comm`,
  :mod:`~repro.parallel.exchange`, :mod:`~repro.parallel.driver`,
  :mod:`~repro.parallel.driver3d`) that actually runs spatially decomposed
  MOC solves — the Jacobi-style boundary-flux exchange of paper
  Sec. 2.1/3.1 — through a pluggable execution engine
  (:mod:`repro.engine`): the in-process deterministic communicator, or
  real worker processes over shared memory;
* a *timing* layer (:mod:`~repro.parallel.timeline`) that executes the
  paper-scale experiments (Figs. 9, 11, 12) on the simulated cluster,
  driven by the Sec. 3.3 performance model.
"""

from repro.parallel.comm import SimComm, CommStats
from repro.parallel.exchange import InterfaceExchange, match_interface_tracks
from repro.parallel.driver import DecomposedSolver
from repro.parallel.driver3d import ZDecomposedSolver, Route3D
from repro.parallel.timeline import (
    ClusterTransportSimulator,
    SimulationReport,
    ScalingStudy,
)

__all__ = [
    "SimComm",
    "CommStats",
    "InterfaceExchange",
    "match_interface_tracks",
    "DecomposedSolver",
    "ZDecomposedSolver",
    "Route3D",
    "ClusterTransportSimulator",
    "SimulationReport",
    "ScalingStudy",
]
