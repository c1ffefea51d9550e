"""Transport solver: exponential evaluation, sweeps, k-eff iteration."""

from repro.solver.backends import (
    KernelBackend,
    KernelTimings,
    SweepPlan,
    TrackTopology,
    get_backend,
    resolve_backend,
)
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.source import SourceTerms
from repro.solver.sweep2d import TransportSweep2D
from repro.solver.sweep3d import TransportSweep3D
from repro.solver.convergence import ConvergenceMonitor, IterationRecord
from repro.solver.keff import KeffSolver, SolveResult
from repro.solver.balance import NeutronBalance, compute_balance, infinite_medium_keff_from_rates
from repro.solver.fixed_source import FixedSourceSolver, FixedSourceResult
from repro.solver.solver import MOCSolver

__all__ = [
    "ExponentialEvaluator",
    "KernelBackend",
    "KernelTimings",
    "SweepPlan",
    "TrackTopology",
    "get_backend",
    "resolve_backend",
    "SourceTerms",
    "TransportSweep2D",
    "TransportSweep3D",
    "ConvergenceMonitor",
    "IterationRecord",
    "KeffSolver",
    "SolveResult",
    "NeutronBalance",
    "compute_balance",
    "infinite_medium_keff_from_rates",
    "FixedSourceSolver",
    "FixedSourceResult",
    "MOCSolver",
]
