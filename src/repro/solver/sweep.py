"""What every transport sweep shares around its kernel.

:class:`~repro.solver.sweep2d.TransportSweep2D`,
:class:`~repro.solver.sweep3d.TransportSweep3D` and the scenario-widened
:class:`~repro.scenario.batched.BatchedSweep2D` differ in their tracks and
in the trailing axes of their angular flux — ``(P, G)``, ``(G,)``,
``(S, P, G)`` — and in nothing after the kernel returns. The base class
here holds the boundary state (``psi_in`` / ``psi_out_last`` over the
link tables of one :class:`~repro.solver.backends.plan.TrackTopology`)
and the one step that follows every kernel call: account its time, fold
the exit flux into the CMFD current tally, hand each exit flux to the
linked traversal's entry (the Jacobi-style boundary update of Sec. 2.1).
:func:`scalar_flux` is the one finalisation formula of all three.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.constants import FOUR_PI
from repro.solver.backends import (
    KernelBackend,
    KernelTimings,
    SweepContext,
    SweepPlan,
    SweepWorkspace,
)
from repro.solver.backends.plan import TrackTopology
from repro.solver.expeval import ExponentialEvaluator


def scalar_flux(
    tally: np.ndarray, reduced_source: np.ndarray, sigma_t: np.ndarray, volumes: np.ndarray
) -> np.ndarray:
    """Convert a sweep tally into scalar flux per (FSR, group):

    ``phi = 4 pi q + tally / (sigma_t V)`` with zero-volume regions
    falling back to the source-driven estimate ``4 pi q``.
    """
    safe_v = np.where(volumes > 0.0, volumes, 1.0)
    phi = FOUR_PI * reduced_source + tally / (sigma_t * safe_v[:, None])
    phi[volumes <= 0.0] = FOUR_PI * reduced_source[volumes <= 0.0]
    return phi


class TransportSweep:
    """Boundary state and post-kernel step of one sweep over one topology."""

    #: The source terms the kernel reads (one per state when widened).
    terms: Any
    #: Optional CMFD coarse-face current tally
    #: (:func:`~repro.solver.cmfd.domain_current_tally`).
    current_tally: Any = None

    def __init__(self, trackgen) -> None:
        self.trackgen = trackgen
        #: The one process-wide exponential table.
        self.evaluator = ExponentialEvaluator.shared()
        self.timings = KernelTimings()
        #: Lockstep-kernel buffers; filled by the kernel at the first sweep.
        self.workspace = SweepWorkspace()

    def _bind_boundary(self, topology: TrackTopology, trailing: tuple) -> None:
        """Link tables of ``topology`` and zero boundary fluxes
        ``(T, 2) + trailing``."""
        self.num_tracks = topology.num_tracks
        self.next_track = topology.next_track
        self.next_dir = topology.next_dir
        self.terminal = topology.terminal  # vacuum or interface
        self.interface = topology.interface
        #: Incoming angular flux per (track, direction, ...).
        self.psi_in = np.zeros((self.num_tracks, 2) + trailing)
        #: Outgoing flux captured at every track end during the last sweep.
        self.psi_out_last = np.zeros_like(self.psi_in)

    def reset_fluxes(self) -> None:
        self.psi_in.fill(0.0)
        self.psi_out_last.fill(0.0)

    def set_interface_flux(self, track: int, direction: int, flux: np.ndarray) -> None:
        """Inject incoming flux at an interface entry (parallel exchange)."""
        self.psi_in[track, direction] = flux

    def _entry_flux(self) -> list[np.ndarray]:
        """Working copies of both directions' entry flux for the kernel."""
        return [self.psi_in[:, 0].copy(), self.psi_in[:, 1].copy()]

    def _kernel(
        self, backend: KernelBackend, plan: SweepPlan, reduced_source: np.ndarray,
        remote: Any = None,
    ) -> np.ndarray:
        """One single-state sweep through ``backend``; returns its tally."""
        psi = self._entry_flux()
        tally = self.current_tally
        ctx = SweepContext(
            reduced_source=reduced_source,
            sigma_t=self.terms.sigma_t_safe,
            evaluator=self.evaluator,
            num_fsrs=self.terms.num_regions,
            capture=None if tally is None else tally.capture,
            workspace=self.workspace,
            remote=remote,
        )
        start = time.perf_counter()
        result = backend.sweep(plan, psi, ctx)
        self._after_kernel(psi, start, ctx.marks)
        return result

    def _fold(self, psi: list[np.ndarray]) -> bool:
        """Fold the exit flux into the CMFD current tally; ``False`` when
        there is none."""
        if self.current_tally is None:
            return False
        self.current_tally.accumulate(psi)
        return True

    def _after_kernel(
        self, psi: list[np.ndarray], start: float, marks: tuple[float, float, float] | None
    ) -> None:
        """Account the kernel call begun at ``start``, fold its exit flux
        ``psi`` into the currents and exchange: each outgoing flux becomes
        the linked traversal's incoming."""
        swept = time.perf_counter()
        self.timings.record_sweep(start, swept, marks)
        if self._fold(psi):
            self.timings.record_fold(swept, time.perf_counter())
        new_in = np.zeros_like(self.psi_in)
        for d in (0, 1):
            self.psi_out_last[:, d] = psi[d]
            live = ~self.terminal[:, d]
            new_in[self.next_track[live, d], self.next_dir[live, d]] = psi[d][live]
        self.psi_in = new_in
