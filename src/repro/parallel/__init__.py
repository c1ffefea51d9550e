"""Parallel runtime: simulated MPI and decomposed solves.

The *functional* layer runs spatially decomposed MOC solves — the
Jacobi-style boundary-flux exchange of paper Sec. 2.1/3.1 — through a
pluggable execution engine (:mod:`repro.engine`): the in-process
deterministic communicator, or real worker processes over shared memory.
The package exports only the communicator (:mod:`~repro.parallel.comm`),
which every run's report reads; the interface exchange
(:mod:`~repro.parallel.exchange`) and the decomposed drivers
(:mod:`~repro.parallel.driver`, :mod:`~repro.parallel.driver3d`) are
imported from their own modules, so a single-domain run loads none of
them (``repro.runtime.antmoc.build_solver`` imports a driver where it
builds one).

The *timing* layer, :mod:`repro.parallel.timeline`, runs the paper-scale
experiments (Figs. 9, 11, 12) from the Sec. 3.3 performance model over
:mod:`repro.hardware`. It is not re-exported here either, so a solve does
not import the paper model.
"""

from repro.parallel.comm import SimComm, CommStats

__all__ = [
    "SimComm",
    "CommStats",
]
