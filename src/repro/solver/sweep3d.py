"""Vectorised 3D transport sweep over z-stacked tracks.

Identical lockstep structure to :class:`~repro.solver.sweep2d.TransportSweep2D`
but each 3D track carries a single (azimuthal, polar) direction and true 3D
segment lengths, so no polar axis appears in the state arrays. The segment
source is pluggable: the EXP strategy passes a cached
:class:`~repro.tracks.segments.SegmentData`, while OTF/Manager strategies
pass freshly (re)generated data each sweep — plans are keyed by segment
identity, and regenerations that keep the per-track layout reuse the
previous plan's position-major layout via
:meth:`~repro.solver.backends.plan.SweepPlan.rebind` — which is also why
one CMFD current tally, laid out over the owning domain's plan, serves
every regenerated sweep.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import SolverError
from repro.solver.backends import KernelBackend, SweepPlan, resolve_backend
from repro.solver.source import SourceTerms
from repro.solver.sweep import TransportSweep, scalar_flux
from repro.tracks.generator import TrackGenerator3D
from repro.tracks.segments import SegmentData


class TransportSweep3D(TransportSweep):
    """3D MOC sweep over the tracks of a :class:`TrackGenerator3D`."""

    def __init__(
        self,
        trackgen: TrackGenerator3D,
        source_terms: SourceTerms,
        backend: str | KernelBackend | None = None,
    ) -> None:
        super().__init__(trackgen)
        self.terms = source_terms
        self.backend = resolve_backend(backend)
        if source_terms.num_regions != trackgen.geometry3d.num_fsrs:
            raise SolverError(
                f"source terms cover {source_terms.num_regions} regions, "
                f"3D geometry has {trackgen.geometry3d.num_fsrs} FSRs"
            )
        start = time.perf_counter()
        topology = trackgen.sweep_topology_3d()
        self.timings.setup_seconds += time.perf_counter() - start
        self.num_groups = source_terms.num_groups
        self.weights = topology.weights
        self._bind_boundary(topology, (self.num_groups,))
        self._plan: SweepPlan | None = None

    def plan_for(self, segments: SegmentData) -> SweepPlan:
        """The (generator-cached) sweep plan for ``segments``."""
        if segments.num_tracks != self.num_tracks:
            raise SolverError(
                f"segment data covers {segments.num_tracks} tracks, "
                f"sweep has {self.num_tracks}"
            )
        if self._plan is None or self._plan.segments is not segments:
            start = time.perf_counter()
            self._plan = self.trackgen.sweep_plan_3d(segments)
            self.timings.setup_seconds += time.perf_counter() - start
            self.timings.num_plan_builds += 1
        return self._plan

    def sweep(self, segments: SegmentData, reduced_source: np.ndarray) -> np.ndarray:
        """One 3D transport sweep; returns the FSR tally ``(R, G)``."""
        return self._kernel(self.backend, self.plan_for(segments), reduced_source)

    def finalize_scalar_flux(
        self, tally: np.ndarray, reduced_source: np.ndarray, volumes: np.ndarray
    ) -> np.ndarray:
        """Scalar flux per (FSR, group) from the sweep tally
        (:func:`~repro.solver.sweep.scalar_flux`)."""
        return scalar_flux(tally, reduced_source, self.terms.sigma_t_safe, volumes)
