"""k-effective power iteration driving the transport sweeps."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.constants import DEFAULT_KEFF_TOL, DEFAULT_SOURCE_TOL
from repro.errors import SolverError
from repro.io.logging_utils import get_logger
from repro.solver.convergence import ConvergenceMonitor
from repro.solver.source import SourceTerms

#: A sweep callback: reduced source (R, G) -> delta-psi tally (R, G).
SweepFn = Callable[[np.ndarray], np.ndarray]
#: Scalar-flux finaliser: (tally, reduced_source, volumes) -> phi.
FinalizeFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class SolveResult:
    """Outcome of a k-eigenvalue solve."""

    keff: float
    scalar_flux: np.ndarray
    converged: bool
    num_iterations: int
    monitor: ConvergenceMonitor
    solve_seconds: float
    #: Wall-time attribution per solver phase: ``source`` (reduced-source
    #: update), ``sweep`` (transport kernel + storage strategy) and
    #: ``finalize`` (tally -> scalar flux). Sweep-internal setup/kernel
    #: split lives in the sweeper's own ``timings``.
    phase_seconds: dict = field(default_factory=dict)
    #: Accelerator bookkeeping (``cmfd_solves``/``cmfd_iterations``/
    #: ``cmfd_skips``/``cmfd_seconds``); empty when no accelerator ran.
    cmfd_stats: dict = field(default_factory=dict)

    def fission_rates(self, terms: SourceTerms, volumes: np.ndarray) -> np.ndarray:
        """Per-FSR fission rates of the converged flux (Fig. 7 output)."""
        return terms.fission_rate(self.scalar_flux, volumes)


def with_kernel_phases(phases: dict, kernel: dict) -> dict:
    """``phases`` with a sweeper's kernel split (``KernelTimings.
    kernel_phases``) as ``sweep/<phase>`` rows right after ``sweep``, the
    order the stage table prints them in."""
    rows: dict = {}
    for name, seconds in phases.items():
        rows[name] = seconds
        if name == "sweep":
            rows.update({f"sweep/{phase}": spent for phase, spent in kernel.items()})
    return rows


class KeffSolver:
    """Generic power iteration over a pluggable transport sweep.

    The sweep and finalise callbacks abstract over 2D/3D sweeps and over
    the track-storage strategies (EXP/OTF/Manager supply different sweep
    closures for the same solver loop).
    """

    def __init__(
        self,
        terms: SourceTerms,
        volumes: np.ndarray,
        sweep: SweepFn,
        finalize: FinalizeFn,
        keff_tolerance: float = DEFAULT_KEFF_TOL,
        source_tolerance: float = DEFAULT_SOURCE_TOL,
        max_iterations: int = 500,
        accelerator=None,
    ) -> None:
        self.terms = terms
        self.volumes = np.asarray(volumes, dtype=np.float64)
        if self.volumes.shape != (terms.num_regions,):
            raise SolverError(
                f"volumes shape {self.volumes.shape} != ({terms.num_regions},)"
            )
        self.sweep = sweep
        self.finalize = finalize
        self.keff_tolerance = keff_tolerance
        self.source_tolerance = source_tolerance
        self.max_iterations = int(max_iterations)
        #: Optional low-order accelerator (e.g. a CMFD
        #: :class:`~repro.solver.cmfd.CmfdAccelerator`): called once per
        #: power iteration with ``(phi_new, phi, keff)``, may rescale
        #: ``phi`` in place, and returns the updated eigenvalue estimate.
        self.accelerator = accelerator
        if not np.any(terms.nu_sigma_f > 0.0):
            raise SolverError("no fissile region present; k-eigenvalue undefined")

    def solve(self, initial_flux: np.ndarray | None = None) -> SolveResult:
        """Run the power iteration to convergence (or max iterations)."""
        start = time.perf_counter()
        terms = self.terms
        if initial_flux is not None:
            phi = np.array(initial_flux, dtype=np.float64)
        else:
            phi = np.ones((terms.num_regions, terms.num_groups))
        production = terms.fission_production(phi, self.volumes)
        if production <= 0.0:
            raise SolverError("initial flux produces no fission neutrons")
        phi /= production
        keff = 1.0
        monitor = ConvergenceMonitor(
            keff_tolerance=self.keff_tolerance, source_tolerance=self.source_tolerance
        )
        phases = {"source": 0.0, "sweep": 0.0, "finalize": 0.0}
        for _ in range(self.max_iterations):
            t0 = time.perf_counter()
            reduced = terms.reduced_source(phi, keff)
            t1 = time.perf_counter()
            tally = self.sweep(reduced)
            t2 = time.perf_counter()
            phi_new = self.finalize(tally, reduced, self.volumes)
            t3 = time.perf_counter()
            phases["source"] += t1 - t0
            phases["sweep"] += t2 - t1
            phases["finalize"] += t3 - t2
            new_production = terms.fission_production(phi_new, self.volumes)
            if new_production <= 0.0:
                raise SolverError("fission production vanished during iteration")
            # Previous flux was normalised to unit production, so the
            # production of the new flux *is* the multiplication ratio.
            keff = keff * new_production
            phi = phi_new / new_production
            if self.accelerator is not None:
                keff = self.accelerator.apply(phi_new, phi, keff)
            monitor.update(keff, terms.fission_source(phi))
            if monitor.converged:
                break
        elapsed = time.perf_counter() - start
        if not monitor.converged:
            get_logger("repro.solver").warning(
                "k-eigenvalue solve stopped unconverged after %d iterations "
                "(max_iterations=%d): keff_change=%.3e (tol %.1e), "
                "source_residual=%.3e (tol %.1e)",
                monitor.num_iterations,
                self.max_iterations,
                monitor.history[-1].keff_change if monitor.history else float("inf"),
                self.keff_tolerance,
                monitor.history[-1].source_residual if monitor.history else float("inf"),
                self.source_tolerance,
            )
        stats = getattr(self.accelerator, "stats", None)
        return SolveResult(
            keff=keff,
            scalar_flux=phi.copy(),
            converged=monitor.converged,
            num_iterations=monitor.num_iterations,
            monitor=monitor,
            solve_seconds=elapsed,
            phase_seconds=phases,
            cmfd_stats=stats.as_dict() if stats is not None else {},
        )
