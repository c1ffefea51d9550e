"""High-level MOC solver facade.

:class:`MOCSolver` wires geometry, tracking, source terms, sweep and power
iteration together — the single entry point most examples use. It is one
:class:`~repro.solver.domain.Domain` (which builds the tracking, the
sweeper and, in 3D, one of the track-storage strategies of
:mod:`repro.trackmgmt`) under the power iteration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol

import numpy as np

from repro.errors import SolverError
from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import Geometry
from repro.solver.cmfd import (
    CmfdAccelerator,
    coarse_mesh_for,
    coarse_problem,
    coerce_cmfd,
    domain_current_tally,
)
from repro.solver.domain import Domain
from repro.solver.keff import KeffSolver, SolveResult, with_kernel_phases
from repro.tracks.generator import TrackGenerator, TrackingTimings

if TYPE_CHECKING:
    from repro.parallel.comm import SimComm


class Workload(NamedTuple):
    """The paper's workload terms of one built solver, summed over its
    domains; 3D terms are zero for radial solves."""

    num_fsrs: int
    num_domains: int
    tracks_2d: int
    segments_2d: int
    tracks_3d: int = 0
    segments_3d: int = 0
    #: 3D tracks whose segments stay resident (the rest are regenerated
    #: every sweep): all under EXP / CCM, none under OTF.
    tracks_3d_resident: int = 0


class TransportSolver(Protocol):
    """What the run pipeline asks of a built solver, single-domain or
    decomposed, 2D or 3D — so nothing downstream of construction
    branches on the solver's type."""

    @property
    def comm(self) -> SimComm | None:
        """The communicator a decomposed solve reduces and accounts
        through; ``None`` for a single domain."""

    @property
    def tracking_timings(self) -> list[TrackingTimings]:
        """One phase breakdown per track generator the solver built."""

    @property
    def workload(self) -> Workload: ...

    def solve(self) -> SolveResult: ...

    def fission_rates(self, result: SolveResult) -> np.ndarray:
        """Global per-FSR fission rates, unit mean over fissile FSRs."""


def unit_fissile_mean(rates: np.ndarray) -> np.ndarray:
    """``rates`` normalised to unit mean over the fissile FSRs."""
    fissile = rates > 0.0
    if not fissile.any():
        raise SolverError("no fissile FSR carries a fission rate")
    return rates / rates[fissile].mean()


class MOCSolver:
    """End-to-end MOC eigenvalue solver for a single (undecomposed) domain."""

    #: A single domain exchanges nothing.
    comm: None = None

    def __init__(self, domain: Domain, keff_solver: KeffSolver) -> None:
        self.domain = domain
        self.keff_solver = keff_solver
        self.terms = domain.terms
        self.volumes = domain.volumes
        self.sweeper = domain.sweeper
        self.trackgen = domain.trackgen
        #: The 3D track-storage strategy (``None`` for a 2D solver).
        self.storage_strategy = domain.strategy

    # ------------------------------------------------------------- builders

    @classmethod
    def for_2d(
        cls,
        geometry: Geometry,
        num_azim: int = 4,
        azim_spacing: float = 0.5,
        num_polar: int = 4,
        keff_tolerance: float = 1.0e-6,
        source_tolerance: float = 1.0e-5,
        max_iterations: int = 500,
        backend: str | None = None,
        cache=None,
        cmfd=None,
        trackgen: TrackGenerator | None = None,
        materials=None,
    ) -> "MOCSolver":
        """Build a 2D solver: one :meth:`Domain.radial
        <repro.solver.domain.Domain.radial>` (which documents ``trackgen``
        and ``materials``) under the power iteration."""
        domain = Domain.radial(
            geometry, num_azim=num_azim, azim_spacing=azim_spacing, num_polar=num_polar,
            cache=cache, backend=backend, trackgen=trackgen, materials=materials,
        )
        return cls._assemble(domain, cmfd, keff_tolerance, source_tolerance, max_iterations)

    @classmethod
    def for_3d(
        cls,
        geometry3d: ExtrudedGeometry,
        num_azim: int = 4,
        azim_spacing: float = 0.5,
        polar_spacing: float = 0.5,
        num_polar: int = 2,
        storage: str = "EXP",
        resident_memory_bytes: int | None = None,
        keff_tolerance: float = 1.0e-6,
        source_tolerance: float = 1.0e-5,
        max_iterations: int = 500,
        backend: str | None = None,
        cache=None,
        cmfd=None,
    ) -> "MOCSolver":
        """Build a 3D solver: one :meth:`Domain.extruded
        <repro.solver.domain.Domain.extruded>` with an EXP / OTF / MANAGER
        / CCM storage strategy under the power iteration."""
        domain = Domain.extruded(
            geometry3d, num_azim=num_azim, azim_spacing=azim_spacing,
            polar_spacing=polar_spacing, num_polar=num_polar, storage=storage,
            resident_memory_bytes=resident_memory_bytes, cache=cache, backend=backend,
        )
        return cls._assemble(domain, cmfd, keff_tolerance, source_tolerance, max_iterations)

    @classmethod
    def _assemble(
        cls, domain: Domain, cmfd, keff_tolerance, source_tolerance, max_iterations
    ) -> "MOCSolver":
        """The tail both builders share: the domain's build (the caller
        sweeps it), the optional CMFD overlay — the coarse problem of a
        one-domain, no-route decomposition, so every track end that is not
        locally linked is vacuum — then the power iteration over the
        domain's sweep."""
        domain.build()
        accelerator = None
        options = coerce_cmfd(cmfd)
        if options is not None:
            mesh = coarse_mesh_for(domain.geometry, options)
            tally = domain_current_tally(domain.plan, mesh.cellmap, domain.terms.num_groups)
            domain.sweeper.current_tally = tally
            problem = coarse_problem(mesh, [domain.terms], domain.volumes, options, [tally.pairs])
            accelerator = CmfdAccelerator(problem, domain.sweeper, domain.terms, domain.volumes)
        keff_solver = KeffSolver(
            domain.terms,
            domain.volumes,
            sweep=domain.sweep,
            finalize=domain.sweeper.finalize_scalar_flux,
            keff_tolerance=keff_tolerance,
            source_tolerance=source_tolerance,
            max_iterations=max_iterations,
            accelerator=accelerator,
        )
        return cls(domain, keff_solver)

    # --------------------------------------------------------------- runner

    def solve(self, initial_flux: np.ndarray | None = None) -> SolveResult:
        """Run the power iteration; the kernel's own phase split joins the
        result as ``sweep/<phase>`` rows nested under ``sweep``."""
        before = self.sweeper.timings.kernel_phases()
        result = self.keff_solver.solve(initial_flux)
        after = self.sweeper.timings.kernel_phases()
        result.phase_seconds = with_kernel_phases(
            result.phase_seconds,
            {phase: after[phase] - before.get(phase, 0.0) for phase in after},
        )
        return result

    def fission_rates(self, result: SolveResult) -> np.ndarray:
        """Per-FSR fission rates, normalised to unit mean over fissile FSRs."""
        return unit_fissile_mean(self.terms.fission_rate(result.scalar_flux, self.volumes))

    @property
    def tracking_timings(self) -> list[TrackingTimings]:
        return [self.trackgen.timings]

    @property
    def workload(self) -> Workload:
        dom = self.domain
        return Workload(
            dom.num_fsrs, 1, dom.trackgen.num_tracks, dom.trackgen.num_segments,
            dom.tracks_3d, dom.segments_3d, dom.tracks_3d_resident,
        )
