"""Vectorised 2D transport sweep.

The sweep mirrors ANT-MOC's GPU mapping (Algorithm 1): every (track,
direction) traversal advances one segment per step, with the segment loop
executed by a pluggable kernel backend (:mod:`repro.solver.backends`) over
a precompiled :class:`~repro.solver.backends.plan.SweepPlan`. Angular flux
enters each track from a stored boundary array and exits into the linked
track's storage for the next sweep (the Jacobi-style boundary update of
Sec. 2.1).

Everything segment-layout-shaped (the position-major layout, link
tables, sweep weights) is built once per track layout — cached on the
:class:`~repro.tracks.generator.TrackGenerator` — and shared by every
sweep instance over the same tracking products. Boundary state, exchange
and finalisation are :mod:`repro.solver.sweep`'s.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.errors import SolverError
from repro.solver.backends import KernelBackend, resolve_backend
from repro.solver.source import SourceTerms
from repro.solver.sweep import TransportSweep, scalar_flux
from repro.tracks.generator import TrackGenerator


class TransportSweep2D(TransportSweep):
    """One-geometry 2D MOC sweep over precomputed tracks and segments."""

    def __init__(
        self,
        trackgen: TrackGenerator,
        source_terms: SourceTerms,
        backend: str | KernelBackend | None = None,
    ) -> None:
        super().__init__(trackgen)
        self.terms = source_terms
        self.backend = resolve_backend(backend)
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
        self.num_polar = trackgen.polar.num_polar_half
        self.num_groups = source_terms.num_groups
        self._bind_boundary(self.plan.topology, (self.num_polar, self.num_groups))
        #: The backward-direction helper of a split solve, installed for
        #: one solve by :func:`~repro.runtime.sweep_split.split_sweep`;
        #: ``None`` sweeps both directions here.
        self.split: Any = None

    def sweep(self, reduced_source: np.ndarray) -> np.ndarray:
        """One transport sweep; returns the FSR delta-psi tally ``(R, G)``.

        ``reduced_source`` is ``Q / (4 pi sigma_t)`` per (FSR, group). The
        boundary angular fluxes are advanced in place (Jacobi update).
        """
        remote = None if self.split is None else self.split.remote()
        return self._kernel(self.backend, self.plan, reduced_source, remote)

    def finalize_scalar_flux(
        self, tally: np.ndarray, reduced_source: np.ndarray, volumes: np.ndarray
    ) -> np.ndarray:
        """Scalar flux per (FSR, group) from the sweep tally
        (:func:`~repro.solver.sweep.scalar_flux`)."""
        return scalar_flux(tally, reduced_source, self.terms.sigma_t_safe, volumes)
