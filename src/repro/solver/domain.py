"""One domain's solver state: tracks, terms, sweeper, storage, volumes.

A single-domain solve, one cut of a lattice decomposition and one z-slab
of an axial decomposition are the same thing to everything downstream of
construction, and :class:`Domain` builds all three. It has exactly two
builders — :meth:`Domain.radial` over a 2D geometry and
:meth:`Domain.extruded` over an extruded one — and they are the only
places in ``src/repro`` that construct a sweeper or a track-storage
strategy, so ``EXP`` / ``OTF`` / ``MANAGER`` / ``CCM`` mean the same at
``nz = 1`` and ``nz > 1``: the resident budget is per domain, as the
paper's is per device.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import Geometry
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.source import SourceTerms
from repro.solver.sweep2d import TransportSweep2D
from repro.solver.sweep3d import TransportSweep3D
from repro.tracks.generator import TrackGenerator, TrackGenerator3D

if TYPE_CHECKING:
    from repro.solver.backends import SweepPlan
    from repro.trackmgmt.strategy import StorageStrategy


class Domain:
    """What a solve reads of one domain — the surface the execution
    engines see through :class:`~repro.engine.problem.DecomposedProblem`.

    Global FSR ids are ``fsr_offset + local_id``; a decomposed driver
    assigns the offsets, a single domain keeps 0. ``strategy`` is the 3D
    track-storage strategy (``None`` for a radial domain); ``tracks_3d``,
    ``segments_3d`` and ``tracks_3d_resident`` are the 3D workload terms,
    taken once at build (0 for a radial domain).
    """

    def __init__(
        self,
        geometry: Geometry | ExtrudedGeometry,
        trackgen: TrackGenerator,
        terms: SourceTerms,
        sweeper: TransportSweep2D | TransportSweep3D,
        volumes: np.ndarray,
        strategy: StorageStrategy | None = None,
        segments_3d: int = 0,
    ) -> None:
        self.geometry = geometry
        self.trackgen = trackgen
        self.terms = terms
        self.sweeper = sweeper
        self.volumes = volumes
        self.strategy = strategy
        self.fsr_offset = 0
        self.tracks_3d = 0 if strategy is None else strategy.trackgen.num_tracks_3d
        self.segments_3d = segments_3d
        self.tracks_3d_resident = 0 if strategy is None else strategy.num_resident

    @classmethod
    def radial(
        cls,
        geometry: Geometry,
        *,
        num_azim: int,
        azim_spacing: float,
        num_polar: int,
        tracer: str | None = None,
        cache=None,
        evaluator: ExponentialEvaluator | None = None,
        backend: str | None = None,
        trackgen: TrackGenerator | None = None,
        materials=None,
    ) -> "Domain":
        """A 2D domain. ``trackgen`` injects an already generated laydown
        (scenario batches trace once and solve many states over it);
        ``materials`` overrides the per-FSR material list (a perturbed
        state of the same geometry — tracking-invariant by construction).
        """
        if trackgen is None:
            trackgen = TrackGenerator(
                geometry, num_azim=num_azim, azim_spacing=azim_spacing,
                num_polar=num_polar, tracer=tracer, cache=cache,
            ).generate()
        terms = SourceTerms(list(geometry.fsr_materials if materials is None else materials))
        sweeper = TransportSweep2D(trackgen, terms, evaluator, backend=backend)
        return cls(geometry, trackgen, terms, sweeper, trackgen.fsr_volumes)

    @classmethod
    def extruded(
        cls,
        geometry3d: ExtrudedGeometry,
        *,
        num_azim: int,
        azim_spacing: float,
        polar_spacing: float,
        num_polar: int,
        storage: str,
        resident_memory_bytes: int | None,
        tracer: str | None = None,
        cache=None,
        evaluator: ExponentialEvaluator | None = None,
        backend: str | None = None,
        radial: TrackGenerator | None = None,
    ) -> "Domain":
        """A 3D domain over an ``EXP`` / ``OTF`` / ``MANAGER`` / ``CCM``
        storage strategy. ``radial`` is a generated radial laydown the 3D
        generator adopts instead of tracing its own (every z-slab of one
        decomposition shares one). The volumes and the segment count come
        from one reference pass that is let go, so a regenerating strategy
        keeps no second segmentation alive.
        """
        # repro.trackmgmt.strategy imports repro.solver.sweep3d.
        from repro.trackmgmt import make_strategy

        trackgen = TrackGenerator3D(
            geometry3d, num_azim=num_azim, azim_spacing=azim_spacing,
            polar_spacing=polar_spacing, num_polar=num_polar, tracer=tracer, cache=cache,
        )
        if radial is not None:
            trackgen.adopt_radial(radial)
        trackgen.generate()
        terms = SourceTerms(list(geometry3d.fsr_materials))
        sweeper = TransportSweep3D(trackgen, terms, evaluator, backend=backend)
        strategy = make_strategy(storage, trackgen, resident_memory_bytes=resident_memory_bytes)
        reference = strategy.reference_segments()
        volumes = trackgen.fsr_volumes_3d(reference)
        return cls(geometry3d, trackgen, terms, sweeper, volumes, strategy, reference.num_segments)

    @property
    def num_fsrs(self) -> int:
        return self.geometry.num_fsrs

    @property
    def plan(self) -> SweepPlan:
        """The sweep plan this domain's CMFD current tally is laid out
        over. A regenerating strategy hands every sweep a
        :meth:`~repro.solver.backends.plan.SweepPlan.rebind` of it, which
        keeps the layout, so one tally serves every sweep."""
        if self.strategy is None:
            return self.sweeper.plan
        return self.sweeper.plan_for(self.strategy.reference_segments())

    def sweep(self, reduced_source_local: np.ndarray) -> np.ndarray:
        """One local sweep; returns the local delta-psi tally."""
        if self.strategy is None:
            return self.sweeper.sweep(reduced_source_local)
        return self.strategy.sweep(self.sweeper, reduced_source_local)

    def finalize(self, tally: np.ndarray, reduced_source_local: np.ndarray) -> np.ndarray:
        return self.sweeper.finalize_scalar_flux(tally, reduced_source_local, self.volumes)
