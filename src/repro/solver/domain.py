"""One domain's solver state: tracks, terms, sweeper, storage, volumes.

A single-domain solve, one cut of a lattice decomposition and one z-slab
of an axial decomposition are the same thing to everything downstream of
construction, and :class:`Domain` builds all three, in two steps. Its two
builders — :meth:`Domain.radial` over a 2D geometry and
:meth:`Domain.extruded` over an extruded one — lay the tracks down and
take the source terms: what a decomposition needs of every domain to
route its interfaces. :meth:`Domain.build` then builds what sweeping the
domain needs — the sweeper, the track-storage strategy and the 3D
segmentation behind the volumes — in the process that sweeps it: the
caller of a single-domain or ``inproc`` solve, the forked worker of an
``mp`` one. It is the only place in ``src/repro`` that constructs a
sweeper or a storage strategy, so ``EXP`` / ``OTF`` / ``MANAGER`` /
``CCM`` mean the same at ``nz = 1`` and ``nz > 1``: the resident budget
is per domain, as the paper's is per device.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.extruded import ExtrudedGeometry
from repro.geometry.geometry import Geometry
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
    assigns the offsets, a single domain keeps 0. Until :meth:`build` ran
    in this process, ``sweeper`` and ``strategy`` are ``None``, and so are
    a 3D domain's ``volumes`` unless a start-up step handed them over.
    ``strategy`` is the 3D track-storage strategy (``None`` for a radial
    domain); ``tracks_3d`` (known from the laydown), ``segments_3d`` and
    ``tracks_3d_resident`` (known from the build) are the 3D workload terms
    (0 for a radial domain).
    """

    def __init__(
        self,
        geometry: Geometry | ExtrudedGeometry,
        trackgen: TrackGenerator,
        terms: SourceTerms,
        *,
        backend: str | None,
        storage: str | None = None,
        resident_memory_bytes: int | None = None,
    ) -> None:
        self.geometry = geometry
        self.trackgen = trackgen
        self.terms = terms
        self.fsr_offset = 0
        self.sweeper: TransportSweep2D | TransportSweep3D | None = None
        self.strategy: StorageStrategy | None = None
        self.volumes: np.ndarray | None = None
        self.tracks_3d = 0
        self.segments_3d = 0
        self.tracks_3d_resident = 0
        self._sweep_settings = (backend, storage, resident_memory_bytes)

    @classmethod
    def radial(
        cls,
        geometry: Geometry,
        *,
        num_azim: int,
        azim_spacing: float,
        num_polar: int,
        cache=None,
        backend: str | None = None,
        trackgen: TrackGenerator | None = None,
        materials=None,
    ) -> "Domain":
        """A 2D domain. ``trackgen`` injects an already generated laydown
        (scenario batches trace once and solve many states over it);
        ``materials`` overrides the per-FSR material list (a perturbed
        state of the same geometry — tracking-invariant by construction).
        Its volumes are the laydown's, known at once.
        """
        if trackgen is None:
            trackgen = TrackGenerator(
                geometry, num_azim=num_azim, azim_spacing=azim_spacing,
                num_polar=num_polar, cache=cache,
            ).generate()
        terms = SourceTerms(list(geometry.fsr_materials if materials is None else materials))
        domain = cls(geometry, trackgen, terms, backend=backend)
        domain.volumes = trackgen.fsr_volumes
        return domain

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
        cache=None,
        backend: str | None = None,
        radial: TrackGenerator | None = None,
    ) -> "Domain":
        """A 3D domain over an ``EXP`` / ``OTF`` / ``MANAGER`` / ``CCM``
        storage strategy: its 3D track table, not yet segmented. ``radial``
        is a generated radial laydown the 3D generator adopts instead of
        tracing its own or looking it up in ``cache`` (every z-slab of one
        decomposition shares one).
        """
        trackgen = TrackGenerator3D(
            geometry3d, num_azim=num_azim, azim_spacing=azim_spacing,
            polar_spacing=polar_spacing, num_polar=num_polar, cache=cache,
        )
        if radial is not None:
            trackgen.adopt_radial(radial)
        trackgen.generate()
        domain = cls(
            geometry3d, trackgen, SourceTerms(list(geometry3d.fsr_materials)),
            backend=backend, storage=storage,
            resident_memory_bytes=resident_memory_bytes,
        )
        domain.tracks_3d = trackgen.num_tracks_3d
        return domain

    def build(self) -> "Domain":
        """Build the sweeper (and a 3D domain's storage strategy, volumes
        and segment count) here, once; a built domain is returned as is.
        A 3D domain's volumes and segment count come from one reference
        pass that is let go, so a regenerating strategy keeps no second
        segmentation alive."""
        if self.sweeper is not None:
            return self
        backend, storage, budget = self._sweep_settings
        trackgen = self.trackgen
        if not isinstance(trackgen, TrackGenerator3D):
            self.sweeper = TransportSweep2D(trackgen, self.terms, backend=backend)
            return self
        # repro.trackmgmt.strategy imports repro.solver.sweep3d.
        from repro.trackmgmt import make_strategy

        assert storage is not None
        self.sweeper = TransportSweep3D(trackgen, self.terms, backend=backend)
        self.strategy = make_strategy(storage, trackgen, resident_memory_bytes=budget)
        reference = self.strategy.reference_segments()
        self.volumes = trackgen.fsr_volumes_3d(reference)
        self.segments_3d = reference.num_segments
        self.tracks_3d_resident = self.strategy.num_resident
        return self

    @property
    def num_fsrs(self) -> int:
        return self.geometry.num_fsrs

    @property
    def slot_shape(self) -> tuple[int, ...]:
        """Trailing shape of one boundary-flux slot of this domain's
        sweeper (``psi_in[track, dir]``), known before it is built:
        ``(G,)`` in 3D, ``(polar halves, G)`` in 2D."""
        groups = self.terms.num_groups
        if isinstance(self.trackgen, TrackGenerator3D):
            return (groups,)
        return (self.trackgen.polar.num_polar_half, groups)

    @property
    def plan(self) -> SweepPlan:
        """The sweep plan this domain's CMFD current tally is laid out
        over. A regenerating strategy hands every sweep a
        :meth:`~repro.solver.backends.plan.SweepPlan.rebind` of it, which
        keeps the layout, so one tally serves every sweep."""
        sweeper = self.sweeper
        assert sweeper is not None, "plan of a domain not built here"
        if self.strategy is None:
            return sweeper.plan
        return sweeper.plan_for(self.strategy.reference_segments())

    def sweep(self, reduced_source_local: np.ndarray) -> np.ndarray:
        """One local sweep; returns the local delta-psi tally."""
        assert self.sweeper is not None
        if self.strategy is None:
            return self.sweeper.sweep(reduced_source_local)
        return self.strategy.sweep(self.sweeper, reduced_source_local)

    def finalize(self, tally: np.ndarray, reduced_source_local: np.ndarray) -> np.ndarray:
        assert self.sweeper is not None
        return self.sweeper.finalize_scalar_flux(tally, reduced_source_local, self.volumes)
