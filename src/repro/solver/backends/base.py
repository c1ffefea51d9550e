"""Kernel-backend interface shared by every sweep implementation.

A backend turns one precompiled :class:`~repro.solver.backends.plan.SweepPlan`
plus the per-iteration state (boundary angular flux, reduced source) into a
per-FSR delta-psi tally, mutating the traversal flux arrays in place. The
boundary exchange, interface capture and scalar-flux finalisation stay in
the sweep classes — backends only own the segment loop (the part ANT-MOC
maps onto GPU threads).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from repro.solver.backends.plan import SweepPlan


@dataclass
class SweepContext:
    """Per-sweep inputs shared by all kernels.

    ``sigma_t`` and ``evaluator`` must be stable objects across the solve
    (they key the plan's cached per-segment exponential table).
    """

    reduced_source: np.ndarray
    sigma_t: np.ndarray
    evaluator: object
    num_fsrs: int
    #: Optional :class:`~repro.solver.cmfd.CurrentCapture`: kernels write
    #: the post-segment angular flux of the listed tracks at each position
    #: into its buffers (coarse-face crossings for the CMFD current tally).
    capture: object | None = None
    #: The calling sweeper's :class:`~repro.solver.backends.numpy_backend.
    #: SweepWorkspace` (the lockstep kernel's buffers, reused across
    #: sweeps); ``None`` makes the kernel allocate a throwaway one.
    workspace: object | None = None
    #: Another process that sweeps direction 1 (the numpy kernel calls its
    #: ``release(psi_1, reduced_source)`` before sweeping direction 0 and
    #: its ``collect(psi_1, capture)`` for direction 1's tally bins);
    #: ``None`` sweeps both directions here.
    remote: Any = None
    #: Set by a kernel that splits its time: its entry clock, plus the
    #: summed gather seconds, plus the summed lockstep seconds of both
    #: directions, so ``marks[1] - marks[0]`` is its gather,
    #: ``marks[2] - marks[1]`` its lockstep, and the rest of the call its
    #: reduce.
    marks: tuple[float, float, float] | None = None


@dataclass
class KernelTimings:
    """Per-sweeper attribution of where the time went.

    ``setup_seconds`` covers plan (re)builds; ``sweep_seconds`` the kernel
    itself, of which ``gather_seconds`` (boundary-flux load + hoisted
    source lookup), ``lockstep_seconds`` (the per-position loop) and
    ``reduce_seconds`` (polar contraction + FSR tally) are the phase split
    — the remainder is the exp-table and workspace build of the first
    sweep. They are the calling process's clock: when another process
    sweeps direction 1 (``SweepContext.remote``), the wait for it is part
    of ``reduce_seconds`` and its own phases are not counted here.
    ``fold_seconds`` is the CMFD current fold the sweeper runs after the
    kernel returns (no fold, no ``fold`` phase). Source/finalise time
    is attributed by the solver loop (see
    :class:`~repro.solver.keff.KeffSolver`), so benchmarks can split a
    solve into setup vs. sweep vs. source update.
    """

    setup_seconds: float = 0.0
    sweep_seconds: float = 0.0
    gather_seconds: float = 0.0
    lockstep_seconds: float = 0.0
    reduce_seconds: float = 0.0
    fold_seconds: float = 0.0
    num_sweeps: int = 0
    num_folds: int = 0
    num_plan_builds: int = 0

    def record_sweep(self, start: float, end: float, marks: tuple | None) -> None:
        """Account one kernel call timed ``[start, end]``; ``marks`` is the
        kernel's ``SweepContext.marks`` (``None``: no phase split)."""
        self.sweep_seconds += end - start
        self.num_sweeps += 1
        if marks is not None:
            entered, gathered, stepped = marks
            self.gather_seconds += gathered - entered
            self.lockstep_seconds += stepped - gathered
            self.reduce_seconds += end - stepped

    def record_fold(self, start: float, end: float) -> None:
        """Account one CMFD current fold timed ``[start, end]``."""
        self.fold_seconds += end - start
        self.num_folds += 1

    def kernel_phases(self) -> dict:
        """The sweep's phase split, keyed as the report rows are named."""
        phases = {
            "gather": self.gather_seconds,
            "lockstep": self.lockstep_seconds,
            "reduce": self.reduce_seconds,
        }
        if self.num_folds:
            phases["fold"] = self.fold_seconds
        return phases

    def as_dict(self) -> dict:
        return asdict(self)


class KernelBackend:
    """One sweep-kernel implementation."""

    #: Backend-table key (config value, CLI flag).
    name: str = "abstract"

    def sweep(self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext) -> np.ndarray:
        """Advance both traversal states through all segments.

        ``psi`` holds the forward/backward state arrays, ``(T, P, G)`` in
        2D and ``(T, G)`` in 3D, mutated in place; returns the FSR tally
        ``(R, G)``.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"

