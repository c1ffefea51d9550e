"""Default NumPy sweep kernel: one lockstep loop over a sweep plan.

The plan sorts tracks by descending segment count and lays segments out
position-major, so the tracks active at lockstep position ``i`` are a
*prefix* of the sorted flux array and every per-position buffer is the
slice ``[col_starts[i], col_starts[i + 1])``. :func:`lockstep` is the only
position loop in ``src/``: the 2D, 3D and scenario-widened sweeps differ
in the trailing axes of their buffers — ``(P, G)``, ``(G,)``, ``(S, P, G)``.

* **Step** (Algorithm 1: every (track, direction) traversal advances one
  segment per step). One call advances one direction: its step list holds
  the pre-sliced ``cur[d, :n]`` and ``dpsi[d, lo:hi]`` views, and a step is
  three in-place ufuncs on the ``dpsi`` slice, which enters holding the
  hoisted source lookup (one ``np.take`` per direction per sweep):
  ``dp = view - dp``, ``dp *= F(tau)`` from ``table[lo:hi]``, the plan's
  cached table, ``view -= dp``. A 3D step then weights its slice, still in
  cache: ``dp *= weights[:n]``, the first ``n`` rows of the workspace's
  ``(T, G)`` track weights in sorted order (the plan's
  ``pos_weights[lo:hi]``, value for value). No step allocates. Every
  operation is elementwise, so the two directions are independent to the
  bit.
* **One layout, two walks.** Both directions read the plan's one
  position-major layout and exp table. Direction 0's step list is the
  positions from 0 up, direction 1's the same spans from the last
  position down: at position ``i`` the active tracks are still the prefix
  with more than ``i`` segments, and each track meets its own segments
  last to first, so every step's operands and every per-segment
  delta-psi are those of a walk along the reversed segments — only their
  slot in ``dpsi`` is the forward one.
* **One direction loop.** :func:`sweep_directions` is the kernel of the
  2D, 3D and widened sweeps: per direction it loads, runs the lockstep,
  stores the exit fluxes and adds :meth:`SweepWorkspace.bins` to a tally
  that starts at zeros, so every tally is ``bins(0)``, then ``bins(1)``,
  added onto zeros.
* **Layout.** 2D buffers ``cur[d]`` and ``dpsi[d]`` are segment-major,
  one per direction (so a direction can move to another process, below),
  over one flat tally index. 3D buffers — ``cur[d]``, ``dpsi``,
  ``weights`` and the plan's exp table — are group-major (each the
  transpose of a C-contiguous ``(G, ...)`` array): a direction is reduced
  before the next is swept, so one ``dpsi`` serves both, and each group's
  column is one contiguous run for the loads and the reduce.
* **Reduce.** After a direction's lockstep ``dpsi[d]`` holds every
  segment's delta-psi in its position-major slot. 2D: one polar
  ``einsum`` contracts it to ``(S, G)`` and one ``bincount`` over the flat
  ``fsr * G + g`` index sums it. 3D: one ``bincount`` per group over
  ``pos_fsr`` (the lockstep left ``dpsi`` weighted). ``bincount`` adds a
  bin's terms in array order, so both directions add an FSR's terms in
  forward-slot order — for direction 1 not the order its walk met them.
  The widened sweep reduces per state with the single-state expression on
  ``dpsi[d][:, s]``.
* **Remote backward direction** (2D). ``SweepContext.remote`` hands
  direction 1 to another process (:mod:`repro.runtime.sweep_split`): the
  kernel releases it before its own gather, sweeps direction 0, and adds
  the helper's ``bins(1)`` where it would have added its own — the same
  bits. ``cur`` and ``dpsi`` are per direction, and each process binds
  its own workspace after the fork, so each writes — and so holds in
  memory — only its own direction's; both read the one layout and exp
  table.
* **Workspace.** The buffers belong to a :class:`SweepWorkspace` owned by
  the *sweeper* (``SweepContext.workspace``): plans stay immutable and
  shareable between sweepers and threads; buffers are reused across sweeps
  and OTF/MANAGER ``rebind``s of one layout, and are allocated at the
  first sweep, after the exp table's blockwise build.

DESIGN.md ("Sweep kernel backends") has the memory plan and the measured
phase split.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Sequence

import numpy as np

from repro.solver.backends.base import KernelBackend, SweepContext
from repro.solver.backends.plan import SweepPlan


def _group_major(rows: int, num_groups: int) -> np.ndarray:
    """A ``(rows, G)`` array whose transpose is C-contiguous: each group's
    column is one contiguous run."""
    return np.empty((num_groups, rows)).T


class SweepWorkspace:
    """The lockstep kernel's buffers for one sweeper over one plan layout.

    2D (trailing ``(P, G)``, widened ``(S, P, G)``): one of each per
    direction — ``cur[d] (T, ...)``, ``dpsi[d] (S, ...)`` and the
    pre-sliced step list — plus one flat tally index ``flat (S, G)`` and
    the polar contraction's output. 3D (trailing ``(G,)``): group-major
    ``cur[d]`` and sorted track ``weights`` ``(T, G)``, one group-major
    ``dpsi`` ``(S, G)`` serving both directions (``dpsi[0] is dpsi[1]``:
    the kernel reduces a direction before it sweeps the next), and no
    flat index (``flat is None``). ``steps[1]`` is ``steps[0]``'s spans
    reversed, over direction 1's buffers."""

    __slots__ = ("cur", "dpsi", "contrib", "weights", "steps", "flat", "_starts", "_fsr")

    def __init__(self) -> None:
        self._starts = self._fsr = None

    def bind(self, plan: SweepPlan, trailing: tuple) -> "SweepWorkspace":
        """Allocate on a new layout (``col_starts`` survives ``rebind``) or
        new trailing axes; a rebound plan only refreshes the 2D tally
        index."""
        starts = plan.col_starts
        if self._starts is not starts or self.dpsi[0].shape[1:] != trailing:
            num_tracks, num_segments = plan.topology.num_tracks, plan.num_segments
            num_groups = trailing[-1]
            self.contrib = self.weights = self.flat = None
            if trailing[:-1]:
                self.cur = [np.empty((num_tracks,) + trailing) for _ in (0, 1)]
                self.dpsi = [np.empty((num_segments,) + trailing) for _ in (0, 1)]
                self.contrib = np.empty((num_segments, num_groups))
                self.flat = np.empty((num_segments, num_groups), dtype=np.int64)
            else:
                # 3D has no polar axis to contract: the lockstep weights
                # dpsi by the track weights in sorted order instead.
                self.cur = [_group_major(num_tracks, num_groups) for _ in (0, 1)]
                dpsi = _group_major(num_segments, num_groups)
                self.dpsi = [dpsi, dpsi]
                self.weights = _group_major(num_tracks, num_groups)
                self.weights.T[...] = plan.topology.weights[plan.track_order]
            spans = [
                (lo, hi)
                for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist())
                if hi > lo  # column widths only shrink
            ]
            self.steps = [
                [
                    (lo, hi, self.cur[d][: hi - lo], self.dpsi[d][lo:hi],
                     None if self.weights is None else self.weights[: hi - lo])
                    for lo, hi in walk
                ]
                for d, walk in enumerate((spans, spans[::-1]))
            ]
            self._starts, self._fsr = starts, None
        if self.flat is not None and self._fsr is not plan.pos_fsr:
            num_groups = trailing[-1]
            np.add(plan.pos_fsr[:, None] * num_groups, np.arange(num_groups), out=self.flat)
            self._fsr = plan.pos_fsr
        return self

    def load(self, plan: SweepPlan, d: int, psi: np.ndarray, source: np.ndarray) -> None:
        """Direction ``d``'s boundary flux ``psi`` into prefix order and
        ``source[fsr]`` into ``dpsi[d]``; ``source`` is ``(R, ...)`` without
        the polar axis, broadcast here. The exp table (or its per-position
        fallback) indexes ``sigma_t`` with the same ids, so ``clip`` never
        clips: it only skips numpy's defensive copy of ``out``."""
        if self.flat is None:  # 3D: take along the C-contiguous transposes
            np.take(psi.T, plan.track_order, axis=1, out=self.cur[d].T, mode="clip")
            np.take(source.T, plan.pos_fsr, axis=1, out=self.dpsi[d].T, mode="clip")
            return
        source = np.broadcast_to(
            np.expand_dims(source, -2), source.shape[:1] + self.dpsi[d].shape[1:]
        )
        np.take(psi, plan.track_order, axis=0, out=self.cur[d], mode="clip")
        np.take(source, plan.pos_fsr, axis=0, out=self.dpsi[d], mode="clip")

    def store(self, plan: SweepPlan, d: int, psi: np.ndarray) -> None:
        """Direction ``d``'s exit fluxes back into track order."""
        psi[plan.track_order] = self.cur[d]

    def bins(
        self, plan: SweepPlan, d: int, num_fsrs: int, state: int | None = None
    ) -> np.ndarray:
        """Direction ``d``'s share of the tally (of one state of a widened
        sweep): flat ``(R * G,)`` in 2D, ``(R, G)`` in 3D."""
        if self.flat is None:  # 3D: weighted in the lockstep, one bincount per group
            by_group = [np.bincount(plan.pos_fsr, column, num_fsrs) for column in self.dpsi[d].T]
            return np.stack(by_group, axis=1)
        dpsi = self.dpsi[d] if state is None else self.dpsi[d][:, state]
        contrib = np.einsum("spg,sp->sg", dpsi, plan.pos_weights, out=self.contrib)
        return np.bincount(self.flat.ravel(), contrib.ravel(), num_fsrs * self.flat.shape[-1])


def lockstep(
    work: SweepWorkspace, d: int, table: np.ndarray | None, expf_at, capture
) -> None:
    """Advance every traversal of direction ``d`` one segment per step,
    leaving exit fluxes in ``work.cur[d]`` and per-segment delta-psi in
    ``work.dpsi[d]`` (which enters holding the source lookup). ``table`` is
    the plan's ``(S, ...)`` exp table; when it was too large to build,
    ``expf_at(lo, hi)`` evaluates one position's factors instead. A 3D
    step leaves its delta-psi weighted (``weight`` is ``None`` in 2D).
    ``capture`` is keyed by walk step: direction 1's step ``i`` is
    position ``max_positions - 1 - i``."""
    rows = dest = out = None
    if capture is not None:
        rows, dest, out = capture.rows[d], capture.dest[d], capture.out[d]
    for i, (lo, hi, view, dp, weight) in enumerate(work.steps[d]):
        np.subtract(view, dp, out=dp)
        np.multiply(dp, expf_at(lo, hi) if table is None else table[lo:hi], out=dp)
        np.subtract(view, dp, out=view)
        if weight is not None:
            np.multiply(dp, weight, out=dp)
        if rows is not None and rows[i].size:
            # A crossing after this step implies the track has a segment
            # at its position, so its prefix row is in view.
            out[dest[i]] = view[rows[i]]


def sweep_direction(
    work: SweepWorkspace, plan: SweepPlan, d: int, psi: np.ndarray,
    source: np.ndarray, table: np.ndarray | None, expf_at, capture,
) -> tuple[float, float]:
    """Direction ``d`` through load, :func:`lockstep` and store, its exit
    fluxes back in ``psi``; returns its gather and lockstep seconds."""
    began = time.perf_counter()
    work.load(plan, d, psi, source)
    gathered = time.perf_counter()
    lockstep(work, d, table, expf_at, capture)
    work.store(plan, d, psi)
    return gathered - began, time.perf_counter() - gathered


def sweep_directions(
    work: SweepWorkspace, plan: SweepPlan, psi: list[np.ndarray], source: np.ndarray,
    table: np.ndarray | None, expf_at, capture, num_fsrs: int,
    states: Sequence[int | None] = (None,), remote: Any = None,
) -> tuple[list[np.ndarray], tuple[float, float, float]]:
    """The kernel: each direction in turn through :func:`sweep_direction`,
    its :meth:`SweepWorkspace.bins` added to an ``(R, G)`` tally of zeros
    per state (``None``: the one state of a single-state sweep). With
    ``remote`` set, direction 1 runs on its process and its bins come from
    ``remote.collect``. Returns the tallies and the ``SweepContext.marks``
    of the call."""
    entered = time.perf_counter()
    tallies = [np.zeros((num_fsrs, psi[0].shape[-1])) for _ in states]
    gather = steps = 0.0
    if remote is not None:
        remote.release(psi[1], source)
    for d in (0, 1):
        if d == 1 and remote is not None:
            bins = [remote.collect(psi[1], capture)]
        else:
            seconds = sweep_direction(work, plan, d, psi[d], source, table, expf_at, capture)
            gather += seconds[0]
            steps += seconds[1]
            bins = [work.bins(plan, d, num_fsrs, state) for state in states]
        for tally, add in zip(tallies, bins):
            tally += add.reshape(tally.shape)
    return tallies, (entered, entered + gather, entered + gather + steps)


class NumpySweepBackend(KernelBackend):
    """Vectorised lockstep sweep over precompiled SoA buffers."""

    name = "numpy"

    def sweep(self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext) -> np.ndarray:
        """2D and 3D differ only in ``psi``'s trailing axes. With
        ``ctx.remote`` set (2D), direction 1 runs on its process."""
        table = plan.pos_expf(ctx.sigma_t, ctx.evaluator)
        work = (ctx.workspace or SweepWorkspace()).bind(plan, psi[0].shape[1:])
        expf_at = partial(plan.pos_expf_block, ctx.sigma_t, ctx.evaluator)
        (tally,), ctx.marks = sweep_directions(
            work, plan, psi, ctx.reduced_source, table, expf_at, ctx.capture,
            ctx.num_fsrs, remote=ctx.remote,
        )
        return tally
