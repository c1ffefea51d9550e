"""Vectorised 2D transport sweep.

The sweep mirrors ANT-MOC's GPU mapping (Algorithm 1): every (track,
direction) traversal advances one segment per step, with the segment loop
executed by a pluggable kernel backend (:mod:`repro.solver.backends`) over
a precompiled :class:`~repro.solver.backends.plan.SweepPlan`. Angular flux
enters each track from a stored boundary array and exits into the linked
track's storage for the next sweep (the Jacobi-style boundary update of
Sec. 2.1).

Everything segment-layout-shaped (position-index matrices, gather lists,
link tables, sweep weights) is built once per track layout — cached on the
:class:`~repro.tracks.generator.TrackGenerator` — and shared by every
sweep instance over the same tracking products.
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
    SweepWorkspace,
    build_position_index,  # noqa: F401  (re-export; historical home)
    resolve_backend,
)
from repro.solver.expeval import ExponentialEvaluator
from repro.solver.source import SourceTerms
from repro.tracks.generator import TrackGenerator


class TransportSweep2D:
    """One-geometry 2D MOC sweep over precomputed tracks and segments."""

    def __init__(
        self,
        trackgen: TrackGenerator,
        source_terms: SourceTerms,
        evaluator: ExponentialEvaluator | None = None,
        backend: str | KernelBackend | None = None,
    ) -> None:
        self.trackgen = trackgen
        self.terms = source_terms
        self.evaluator = evaluator or ExponentialEvaluator.shared()
        self.backend = resolve_backend(backend)
        self.timings = KernelTimings()
        #: Lockstep-kernel buffers; filled by the kernel at the first sweep.
        self.workspace = SweepWorkspace()
        geometry = trackgen.geometry
        if source_terms.num_regions != geometry.num_fsrs:
            raise SolverError(
                f"source terms cover {source_terms.num_regions} regions, "
                f"geometry has {geometry.num_fsrs} FSRs"
            )
        start = time.perf_counter()
        self.plan = trackgen.sweep_plan()
        self.timings.setup_seconds += time.perf_counter() - start
        self.timings.num_plan_builds += 1
        topology = self.plan.topology
        self.num_tracks = trackgen.num_tracks
        self.num_polar = trackgen.polar.num_polar_half
        self.num_groups = source_terms.num_groups

        self.next_track = topology.next_track
        self.next_dir = topology.next_dir
        self.terminal = topology.terminal  # vacuum or interface
        self.interface = topology.interface

        #: Incoming angular flux per (track, dir, polar, group).
        self.psi_in = np.zeros((self.num_tracks, 2, self.num_polar, self.num_groups))
        #: Outgoing flux captured at interface ends during the last sweep.
        self.psi_out_last = np.zeros_like(self.psi_in)
        #: Optional CMFD coarse-face current tally, attached by
        #: :func:`~repro.solver.cmfd.decomposed_cmfd_problem`.
        self.current_tally = None

    def reset_fluxes(self) -> None:
        self.psi_in.fill(0.0)
        self.psi_out_last.fill(0.0)

    def sweep(self, reduced_source: np.ndarray, track_mask: np.ndarray | None = None) -> np.ndarray:
        """One transport sweep; returns the FSR delta-psi tally ``(R, G)``.

        ``reduced_source`` is ``Q / (4 pi sigma_t)`` per (FSR, group). The
        boundary angular fluxes are advanced in place (Jacobi update).

        ``track_mask`` restricts the sweep to a subset of tracks — the
        functional form of the L2 angle decomposition: each simulated GPU
        sweeps only its azimuthal angles. The subset must be closed under
        the boundary linking (complementary angle pairs stay together,
        which :func:`~repro.loadbalance.l2_gpus.map_angles_to_gpus`
        guarantees); unmasked tracks' boundary fluxes are left untouched.
        """
        if track_mask is not None:
            track_mask = np.asarray(track_mask, dtype=bool)
            if track_mask.shape != (self.num_tracks,):
                raise SolverError(
                    f"track mask shape {track_mask.shape} != ({self.num_tracks},)"
                )
        if track_mask is not None and self.current_tally is not None:
            raise SolverError(
                "CMFD current tallying is incompatible with masked sweeps "
                "(the L2 angle decomposition); disable one of the two"
            )
        # Work on copies: traversal state (T, P, G) per direction.
        psi = [self.psi_in[:, 0].copy(), self.psi_in[:, 1].copy()]
        ctx = SweepContext(
            reduced_source=reduced_source,
            sigma_t=self.terms.sigma_t_safe,
            evaluator=self.evaluator,
            num_fsrs=self.terms.num_regions,
            track_mask=track_mask,
            capture=None if self.current_tally is None else self.current_tally.capture,
            workspace=self.workspace,
        )
        start = time.perf_counter()
        tally = self.backend.sweep2d(self.plan, psi, ctx)
        self.timings.record_sweep(start, time.perf_counter(), ctx.marks)
        if self.current_tally is not None:
            # psi now holds each traversal's exit flux: fold captured
            # crossings and track-end exits into the coarse-face currents.
            self.current_tally.accumulate(psi)
        # Exchange: outgoing flux becomes the linked traversal's incoming.
        if track_mask is None:
            new_in = np.zeros_like(self.psi_in)
        else:
            new_in = self.psi_in.copy()
            new_in[track_mask] = 0.0
        for d in (0, 1):
            live = ~self.terminal[:, d]
            if track_mask is not None:
                self.psi_out_last[track_mask, d] = psi[d][track_mask]
                live &= track_mask
            else:
                self.psi_out_last[:, d] = psi[d]
            new_in[self.next_track[live, d], self.next_dir[live, d]] = psi[d][live]
        self.psi_in = new_in
        return tally

    def set_interface_flux(self, track: int, direction: int, flux: np.ndarray) -> None:
        """Inject incoming flux at an interface entry (parallel exchange)."""
        self.psi_in[track, direction] = flux

    def finalize_scalar_flux(
        self, tally: np.ndarray, reduced_source: np.ndarray, volumes: np.ndarray
    ) -> np.ndarray:
        """Convert the sweep tally into scalar flux per (FSR, group):

        ``phi = 4 pi q + tally / (sigma_t V)`` with zero-volume regions
        falling back to the source-driven estimate ``4 pi q``.
        """
        sigma_t = self.terms.sigma_t_safe
        safe_v = np.where(volumes > 0.0, volumes, 1.0)
        phi = FOUR_PI * reduced_source + tally / (sigma_t * safe_v[:, None])
        phi[volumes <= 0.0] = FOUR_PI * reduced_source[volumes <= 0.0]
        return phi
