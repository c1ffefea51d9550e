"""Vectorised 3D transport sweep over z-stacked tracks.

Identical lockstep structure to :class:`~repro.solver.sweep2d.TransportSweep2D`
but each 3D track carries a single (azimuthal, polar) direction and true 3D
segment lengths, so no polar axis appears in the state arrays. The segment
source is pluggable: the EXP strategy passes a cached
:class:`~repro.tracks.segments.SegmentData`, while OTF/Manager strategies
pass freshly (re)generated data each sweep — plans are keyed by segment
identity, and regenerations that keep the per-track layout reuse the
previous plan's index matrices and gather lists via
:meth:`~repro.solver.backends.plan.SweepPlan.rebind` — which is also why
one CMFD current tally, laid out over the owning domain's plan, serves
every regenerated sweep.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import FOUR_PI
from repro.errors import SolverError
from repro.solver.backends import (
    KernelBackend,
    KernelTimings,
    SweepContext,
    SweepPlan,
    SweepWorkspace,
    resolve_backend,
)
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.source import SourceTerms
from repro.tracks.generator import TrackGenerator3D
from repro.tracks.segments import SegmentData


class TransportSweep3D:
    """3D MOC sweep over the tracks of a :class:`TrackGenerator3D`."""

    def __init__(
        self,
        trackgen: TrackGenerator3D,
        source_terms: SourceTerms,
        evaluator: ExponentialEvaluator | None = None,
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.trackgen = trackgen
        self.terms = source_terms
        self.evaluator = evaluator or ExponentialEvaluator.shared()
        self.backend = resolve_backend(backend)
        self.timings = KernelTimings()
        #: Lockstep-kernel buffers; filled by the kernel at the first sweep
        #: and kept across OTF/MANAGER rebinds of one layout.
        self.workspace = SweepWorkspace()
        if source_terms.num_regions != trackgen.geometry3d.num_fsrs:
            raise SolverError(
                f"source terms cover {source_terms.num_regions} regions, "
                f"3D geometry has {trackgen.geometry3d.num_fsrs} FSRs"
            )
        start = time.perf_counter()
        topology = trackgen.sweep_topology_3d()
        self.timings.setup_seconds += time.perf_counter() - start
        self.num_tracks = topology.num_tracks
        self.num_groups = source_terms.num_groups

        self.weights = topology.weights
        self.next_track = topology.next_track
        self.next_dir = topology.next_dir
        self.terminal = topology.terminal
        self.interface = topology.interface

        self.psi_in = np.zeros((self.num_tracks, 2, self.num_groups))
        self.psi_out_last = np.zeros_like(self.psi_in)
        self._plan: SweepPlan | None = None
        #: Optional CMFD coarse-face current tally
        #: (:func:`~repro.solver.cmfd.domain_current_tally`) over the
        #: owning domain's plan; regenerated segmentations keep that
        #: plan's layout, so it serves every sweep.
        self.current_tally = None

    def reset_fluxes(self) -> None:
        self.psi_in.fill(0.0)
        self.psi_out_last.fill(0.0)

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
        plan = self.plan_for(segments)
        current_tally = self.current_tally
        psi = [self.psi_in[:, 0].copy(), self.psi_in[:, 1].copy()]
        ctx = SweepContext(
            reduced_source=reduced_source,
            sigma_t=self.terms.sigma_t_safe,
            evaluator=self.evaluator,
            num_fsrs=self.terms.num_regions,
            capture=None if current_tally is None else current_tally.capture,
            workspace=self.workspace,
        )
        start = time.perf_counter()
        tally = self.backend.sweep3d(plan, psi, ctx)
        swept = time.perf_counter()
        self.timings.record_sweep(start, swept, ctx.marks)
        if current_tally is not None:
            # psi now holds each traversal's exit flux: fold captured
            # crossings and track-end exits into the coarse-face currents.
            current_tally.accumulate(psi)
            self.timings.record_fold(swept, time.perf_counter())
        new_in = np.zeros_like(self.psi_in)
        for d in (0, 1):
            self.psi_out_last[:, d] = psi[d]
            live = ~self.terminal[:, d]
            new_in[self.next_track[live, d], self.next_dir[live, d]] = psi[d][live]
        self.psi_in = new_in
        return tally

    def set_interface_flux(self, track: int, direction: int, flux: np.ndarray) -> None:
        self.psi_in[track, direction] = flux

    def finalize_scalar_flux(
        self, tally: np.ndarray, reduced_source: np.ndarray, volumes: np.ndarray
    ) -> np.ndarray:
        """``phi = 4 pi q + tally / (sigma_t V)`` (see the 2D sweep)."""
        sigma_t = self.terms.sigma_t_safe
        safe_v = np.where(volumes > 0.0, volumes, 1.0)
        phi = FOUR_PI * reduced_source + tally / (sigma_t * safe_v[:, None])
        phi[volumes <= 0.0] = FOUR_PI * reduced_source[volumes <= 0.0]
        return phi
