"""High-level MOC solver facade.

:class:`MOCSolver` wires geometry, tracking, source terms, sweep and power
iteration together — the single entry point most examples use. 2D solves
run over a :class:`~repro.tracks.generator.TrackGenerator`; 3D solves over
a :class:`~repro.tracks.generator.TrackGenerator3D` combined with one of
the track-storage strategies of :mod:`repro.trackmgmt`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol

import numpy as np

from repro.errors import SolverError
from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import Geometry
from repro.solver.cmfd import coarse_mesh_for, coerce_cmfd, single_domain_accelerator
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.keff import KeffSolver, SolveResult, with_kernel_phases
from repro.solver.source import SourceTerms
from repro.solver.sweep2d import TransportSweep2D
from repro.solver.sweep3d import TransportSweep3D
from repro.tracks.generator import TrackGenerator, TrackGenerator3D, TrackingTimings

if TYPE_CHECKING:
    from repro.parallel.comm import SimComm
    from repro.trackmgmt.strategy import StorageStrategy


class Workload(NamedTuple):
    """The paper's workload terms of one built solver, summed over its
    domains; 3D terms are zero for radial solves."""

    num_fsrs: int
    num_domains: int
    tracks_2d: int
    segments_2d: int
    tracks_3d: int = 0
    segments_3d: int = 0


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
    #: The 3D track-storage strategy (``None`` for a 2D solver).
    storage_strategy: StorageStrategy | None = None

    def __init__(
        self,
        terms: SourceTerms,
        volumes: np.ndarray,
        keff_solver: KeffSolver,
        sweeper: TransportSweep2D | TransportSweep3D,
        trackgen: TrackGenerator,
    ) -> None:
        self.terms = terms
        self.volumes = volumes
        self.keff_solver = keff_solver
        self.sweeper = sweeper
        self.trackgen = trackgen

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
        evaluator: ExponentialEvaluator | None = None,
        backend: str | None = None,
        tracer: str | None = None,
        cache=None,
        cmfd=None,
        trackgen: TrackGenerator | None = None,
        materials=None,
    ) -> "MOCSolver":
        """Build a 2D solver: tracking, sweep and power iteration.

        ``trackgen`` injects an already-generated track laydown (scenario
        batches trace once and solve many states over it); ``materials``
        overrides the per-FSR material list (a perturbed state of the same
        geometry — tracking-invariant by construction).
        """
        if trackgen is None:
            trackgen = TrackGenerator(
                geometry,
                num_azim=num_azim,
                azim_spacing=azim_spacing,
                num_polar=num_polar,
                tracer=tracer,
                cache=cache,
            ).generate()
        terms = SourceTerms(list(geometry.fsr_materials) if materials is None else list(materials))
        sweeper = TransportSweep2D(trackgen, terms, evaluator, backend=backend)
        return cls._assemble(
            geometry, trackgen, terms, sweeper, trackgen.fsr_volumes, sweeper.sweep, cmfd,
            keff_tolerance, source_tolerance, max_iterations,
        )

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
        evaluator: ExponentialEvaluator | None = None,
        backend: str | None = None,
        tracer: str | None = None,
        cache=None,
        cmfd=None,
    ) -> "MOCSolver":
        """Build a 3D solver with an EXP/OTF/MANAGER storage strategy."""
        from repro.trackmgmt import make_strategy

        trackgen = TrackGenerator3D(
            geometry3d,
            num_azim=num_azim,
            azim_spacing=azim_spacing,
            polar_spacing=polar_spacing,
            num_polar=num_polar,
            tracer=tracer,
            cache=cache,
        ).generate()
        terms = SourceTerms(list(geometry3d.fsr_materials))
        sweeper = TransportSweep3D(trackgen, terms, evaluator, backend=backend)
        strategy = make_strategy(storage, trackgen, resident_memory_bytes=resident_memory_bytes)
        volumes = trackgen.fsr_volumes_3d(strategy.reference_segments())

        def sweep(reduced: np.ndarray) -> np.ndarray:
            return strategy.sweep(sweeper, reduced)

        solver = cls._assemble(
            geometry3d, trackgen, terms, sweeper, volumes, sweep, cmfd,
            keff_tolerance, source_tolerance, max_iterations,
        )
        solver.storage_strategy = strategy
        return solver

    @classmethod
    def _assemble(
        cls, geometry, trackgen, terms, sweeper, volumes, sweep, cmfd,
        keff_tolerance, source_tolerance, max_iterations,
    ) -> "MOCSolver":
        """The tail both builders share: the optional CMFD overlay, then
        the power iteration over ``sweep``. A 3D sweeper builds its tally
        lazily per sweep plan — OTF/Manager strategies regenerate
        segments, so crossings are rediscovered from whatever layout each
        sweep actually uses."""
        accelerator = None
        options = coerce_cmfd(cmfd)
        if options is not None:
            mesh = coarse_mesh_for(geometry, options)
            sweeper.enable_cmfd_tally(mesh.cellmap)
            accelerator = single_domain_accelerator(mesh, sweeper, terms, volumes, options)
        keff_solver = KeffSolver(
            terms,
            volumes,
            sweep=sweep,
            finalize=sweeper.finalize_scalar_flux,
            keff_tolerance=keff_tolerance,
            source_tolerance=source_tolerance,
            max_iterations=max_iterations,
            accelerator=accelerator,
        )
        return cls(terms, volumes, keff_solver, sweeper, trackgen)

    # --------------------------------------------------------------- runner

    def solve(self, initial_flux: np.ndarray | None = None) -> SolveResult:
        """Run the power iteration; the kernel's own phase split joins the
        result as ``sweep/<phase>`` rows nested under ``sweep``."""
        before = self.sweeper.timings.kernel_phases()
        result = self.keff_solver.solve(initial_flux)
        after = self.sweeper.timings.kernel_phases()
        result.phase_seconds = with_kernel_phases(
            result.phase_seconds, {phase: after[phase] - before[phase] for phase in after}
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
        radial = Workload(
            self.terms.num_regions, 1, self.trackgen.num_tracks, self.trackgen.num_segments
        )
        strategy = self.storage_strategy
        if strategy is None:
            return radial
        return radial._replace(
            tracks_3d=strategy.trackgen.num_tracks_3d,
            segments_3d=strategy.reference_segments().num_segments,
        )
