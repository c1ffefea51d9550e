"""k-effective solve of one domain over pluggable sweep callbacks."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import DEFAULT_KEFF_TOL, DEFAULT_SOURCE_TOL
from repro.errors import SolverError
from repro.solver.power import SolveResult, solve_local
from repro.solver.source import SourceTerms

#: A sweep callback: reduced source (R, G) -> delta-psi tally (R, G).
SweepFn = Callable[[np.ndarray], np.ndarray]
#: Scalar-flux finaliser: (tally, reduced_source, volumes) -> phi.
FinalizeFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


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
    """One state, one domain of :mod:`repro.solver.power`'s iteration.

    The sweep and finalise callbacks abstract over 2D/3D sweeps and over
    the track-storage strategies (EXP/OTF/Manager supply different sweep
    closures for the same loop).
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
        #: power iteration with ``(phi_new, phi, production, keff)``,
        #: rescales ``phi`` in place, and returns the updated eigenvalue
        #: estimate with the coarse solve's ``CmfdStep``.
        self.accelerator = accelerator
        if not np.any(terms.nu_sigma_f > 0.0):
            raise SolverError("no fissile region present; k-eigenvalue undefined")

    def solve(self, initial_flux: np.ndarray | None = None) -> SolveResult:
        """Run the power iteration to convergence (or max iterations)."""
        terms = self.terms
        if initial_flux is not None:
            phi = np.array(initial_flux, dtype=np.float64)
        else:
            phi = np.ones((terms.num_regions, terms.num_groups))
        return solve_local(
            [terms],
            self.volumes,
            lambda reduced: [self.sweep(reduced[0])],
            lambda state, tally, reduced: self.finalize(tally, reduced, self.volumes),
            [self.accelerator],
            [phi],
            self,
        )[0]
