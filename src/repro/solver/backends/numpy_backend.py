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
  ``dp = view - dp``, ``dp *= F(tau)`` from the plan's cached table,
  ``view -= dp``. A 3D step then weights its slice, still in cache:
  ``dp *= weights[:n]``, the first ``n`` rows of the workspace's ``(T, G)``
  track weights in sorted order (the plan's ``pos_weights[d][lo:hi]``,
  value for value). No step allocates. Every operation is elementwise, so
  the two directions are independent to the bit.
* **Layout.** 2D buffers are segment-major, one set per direction. 3D
  buffers — ``cur[d]``, ``dpsi``, ``weights`` and the plan's exp table —
  are group-major (each the transpose of a C-contiguous ``(G, ...)``
  array): the 3D kernel takes direction 0 through gather, lockstep, store
  and reduce before direction 1, so one ``dpsi`` serves both, and each
  group's column is one contiguous run for the loads and the reduce.
* **Reduce.** ``dpsi`` then holds every segment's delta-psi. 2D: one
  ``bincount`` per direction over the flat ``fsr * G + g`` index sums it
  after one polar ``einsum`` contracts it to ``(S, G)``. 3D: one
  ``bincount`` per group over ``pos_fsr[d]`` (the lockstep left ``dpsi``
  weighted). Either way it is :meth:`SweepWorkspace.bins`, and the tally
  adds ``bins(0)``, then ``bins(1)``, onto zeros. ``bincount`` adds a
  bin's terms in array order — segment order, as the per-group bincount
  of the pre-fusion kernel — so the tally is bitwise unchanged. The
  widened sweep reduces per state with the single-state expression on
  ``dpsi[d][:, s]``.
* **Remote backward direction** (2D). ``SweepContext.remote`` hands
  direction 1 to another process (:mod:`repro.runtime.sweep_split`): the
  kernel releases it before its own gather, sweeps direction 0, and adds
  the helper's ``bins(1)`` where it would have added its own — the same
  bits. Every 2D buffer is per direction, so each process can free the
  other's (:meth:`SweepWorkspace.drop`).
* **Workspace.** The buffers belong to a :class:`SweepWorkspace` owned by
  the *sweeper* (``SweepContext.workspace``): plans stay immutable and
  shareable between sweepers and threads; buffers are reused across sweeps
  and OTF/MANAGER ``rebind``s of one layout, and are allocated at the
  first sweep, after the exp table's blockwise build.

DESIGN.md ("Sweep kernel backends") has the memory plan and the measured
phase split. Masked 2D sweeps (a track subset) take the plan's per-position
gather columns instead: the prefix property does not survive a mask.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.errors import SolverError
from repro.solver.backends.base import KernelBackend, SweepContext, tally_from_segments
from repro.solver.backends.plan import SweepPlan


def _group_major(rows: int, num_groups: int) -> np.ndarray:
    """A ``(rows, G)`` array whose transpose is C-contiguous: each group's
    column is one contiguous run."""
    return np.empty((num_groups, rows)).T


class SweepWorkspace:
    """The lockstep kernel's buffers for one sweeper over one plan layout.

    2D (trailing ``(P, G)``, widened ``(S, P, G)``): one of each per
    direction — ``cur[d] (T, ...)``, ``dpsi[d] (S, ...)``, the pre-sliced
    step list and the flat tally index ``flat[d]`` — plus the polar
    contraction's output. 3D (trailing ``(G,)``): group-major ``cur[d]``
    and sorted track ``weights`` ``(T, G)``, one group-major ``dpsi``
    ``(S, G)`` serving both directions (``dpsi[0] is dpsi[1]``: the
    kernel reduces a direction before it sweeps the next), and no flat
    index (``flat is None``)."""

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
                self.flat = [np.empty((num_segments, num_groups), dtype=np.int64) for _ in (0, 1)]
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
                    for lo, hi in spans
                ]
                for d in (0, 1)
            ]
            self._starts, self._fsr = starts, None
        if self.flat is not None and self._fsr is not plan.pos_fsr:
            for d, fsr in enumerate(plan.pos_fsr):
                np.add(fsr[:, None] * trailing[-1], np.arange(trailing[-1]), out=self.flat[d])
            self._fsr = plan.pos_fsr
        return self

    def drop(self, d: int) -> None:
        """Free direction ``d``'s 2D buffers: another process sweeps it
        from now on, and this workspace is no longer whole — its sweeper
        binds a fresh one before it sweeps ``d`` here again."""
        self.cur[d] = self.dpsi[d] = self.flat[d] = None
        self.steps[d] = []

    def load(self, plan: SweepPlan, d: int, psi: np.ndarray, source: np.ndarray) -> None:
        """Direction ``d``'s boundary flux ``psi`` into prefix order and
        ``source[fsr]`` into ``dpsi[d]``; ``source`` is ``(R, ...)`` without
        the polar axis, broadcast here. The exp table (or its per-position
        fallback) indexes ``sigma_t`` with the same ids, so ``clip`` never
        clips: it only skips numpy's defensive copy of ``out``."""
        if self.flat is None:  # 3D: take along the C-contiguous transposes
            np.take(psi.T, plan.track_order, axis=1, out=self.cur[d].T, mode="clip")
            np.take(source.T, plan.pos_fsr[d], axis=1, out=self.dpsi[d].T, mode="clip")
            return
        source = np.broadcast_to(
            np.expand_dims(source, -2), source.shape[:1] + self.dpsi[d].shape[1:]
        )
        np.take(psi, plan.track_order, axis=0, out=self.cur[d], mode="clip")
        np.take(source, plan.pos_fsr[d], axis=0, out=self.dpsi[d], mode="clip")

    def store(self, plan: SweepPlan, d: int, psi: np.ndarray) -> None:
        """Direction ``d``'s exit fluxes back into track order."""
        psi[plan.track_order] = self.cur[d]

    def bins(
        self, plan: SweepPlan, d: int, num_fsrs: int, state: int | None = None
    ) -> np.ndarray:
        """Direction ``d``'s share of the tally (of one state of a widened
        sweep): flat ``(R * G,)`` in 2D, ``(R, G)`` in 3D."""
        if self.flat is None:  # 3D: weighted in the lockstep, one bincount per group
            fsr = plan.pos_fsr[d]
            by_group = [np.bincount(fsr, column, num_fsrs) for column in self.dpsi[d].T]
            return np.stack(by_group, axis=1)
        dpsi = self.dpsi[d] if state is None else self.dpsi[d][:, state]
        contrib = np.einsum("spg,sp->sg", dpsi, plan.pos_weights[d], out=self.contrib)
        flat = self.flat[d]
        return np.bincount(flat.ravel(), contrib.ravel(), num_fsrs * flat.shape[-1])

    def reduce(
        self,
        plan: SweepPlan,
        num_fsrs: int,
        state: int | None = None,
        backward: Callable[[], np.ndarray] | None = None,
    ) -> np.ndarray:
        """The 2D ``(R, G)`` tally (of one state of a widened sweep):
        ``bins(0)``, then ``bins(1)``, added onto zeros. ``backward``
        returns direction 1's bins when another process swept it."""
        tally = np.zeros((num_fsrs, self.flat[0].shape[-1]))
        tally += self.bins(plan, 0, num_fsrs, state).reshape(tally.shape)
        far = self.bins(plan, 1, num_fsrs, state) if backward is None else backward()
        tally += far.reshape(tally.shape)
        return tally


def lockstep(
    work: SweepWorkspace, d: int, table: np.ndarray | None, expf_at, capture
) -> None:
    """Advance every traversal of direction ``d`` one segment per step,
    leaving exit fluxes in ``work.cur[d]`` and per-segment delta-psi in
    ``work.dpsi[d]`` (which enters holding the source lookup). ``table`` is
    the ``(2, S, ...)`` exp table; when it was too large to build,
    ``expf_at(d, lo, hi)`` evaluates one position's factors instead. A 3D
    step leaves its delta-psi weighted (``weight`` is ``None`` in 2D)."""
    factors = None if table is None else table[d]
    rows = dest = out = None
    if capture is not None:
        rows, dest, out = capture.rows[d], capture.dest[d], capture.out[d]
    for i, (lo, hi, view, dp, weight) in enumerate(work.steps[d]):
        np.subtract(view, dp, out=dp)
        np.multiply(dp, expf_at(d, lo, hi) if factors is None else factors[lo:hi], out=dp)
        np.subtract(view, dp, out=view)
        if weight is not None:
            np.multiply(dp, weight, out=dp)
        if rows is not None and rows[i].size:
            # A crossing after position i implies the track has >= i + 2
            # segments, so its prefix row is in view.
            out[dest[i]] = view[rows[i]]


def _sweep_in_turn(
    plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext, work: SweepWorkspace,
    table: np.ndarray | None, expf_at,
) -> np.ndarray:
    """The 3D kernel: direction 0 through gather, lockstep, store and
    ``bins(0)``, then direction 1 the same way over the same ``dpsi``; the
    tally adds ``bins(0)``, then ``bins(1)``, onto zeros. The phases
    interleave, so ``ctx.marks`` are the entry clock plus the summed
    gather, then lockstep, seconds."""
    tally = np.zeros((ctx.num_fsrs, psi[0].shape[-1]))
    gather = steps = 0.0
    entered = time.perf_counter()
    for d in (0, 1):
        began = time.perf_counter()
        work.load(plan, d, psi[d], ctx.reduced_source)
        gathered = time.perf_counter()
        lockstep(work, d, table, expf_at, ctx.capture)
        work.store(plan, d, psi[d])
        stepped = time.perf_counter()
        gather += gathered - began
        steps += stepped - gathered
        tally += work.bins(plan, d, ctx.num_fsrs)
    ctx.marks = (entered, entered + gather, entered + gather + steps)
    return tally


class NumpySweepBackend(KernelBackend):
    """Vectorised lockstep sweep over precompiled SoA buffers."""

    name = "numpy"

    def sweep2d(
        self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext
    ) -> np.ndarray:
        if ctx.track_mask is not None:
            return self._sweep2d_masked(plan, psi, ctx)
        return self._sweep(plan, psi, ctx)

    def sweep3d(
        self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext
    ) -> np.ndarray:
        return self._sweep(plan, psi, ctx)

    def _sweep(self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext) -> np.ndarray:
        """The lockstep kernel: 2D and 3D differ only in ``psi``'s trailing
        axes. With ``ctx.remote`` set (2D), direction 1 runs on its process."""
        table = plan.pos_expf(ctx.sigma_t, ctx.evaluator)
        work = (ctx.workspace or SweepWorkspace()).bind(plan, psi[0].shape[1:])

        def expf_at(d: int, lo: int, hi: int) -> np.ndarray:
            return plan.pos_expf_block(ctx.sigma_t, ctx.evaluator, d, lo, hi)

        if work.flat is None:
            return _sweep_in_turn(plan, psi, ctx, work, table, expf_at)
        remote = ctx.remote
        here = (0, 1) if remote is None else (0,)
        entered = time.perf_counter()
        if remote is not None:
            remote.release(psi[1], ctx.reduced_source)
        for d in here:
            work.load(plan, d, psi[d], ctx.reduced_source)
        gathered = time.perf_counter()
        for d in here:
            lockstep(work, d, table, expf_at, ctx.capture)
            work.store(plan, d, psi[d])
        ctx.marks = (entered, gathered, time.perf_counter())
        if remote is None:
            return work.reduce(plan, ctx.num_fsrs)
        return work.reduce(
            plan, ctx.num_fsrs, backward=lambda: remote.collect(psi[1], ctx.capture)
        )

    def _sweep2d_masked(
        self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext
    ) -> np.ndarray:
        if ctx.remote is not None:
            raise SolverError("a masked sweep cannot hand a direction to another process")
        if ctx.capture is not None:
            raise SolverError("CMFD current capture does not support masked sweeps")
        expf = plan.segment_expf(ctx.sigma_t, ctx.evaluator)
        num_polar, num_groups = psi[0].shape[1], psi[0].shape[2]
        dpsi_seg = np.zeros((2, plan.num_segments, num_polar, num_groups))
        inv_sin = plan.topology.inv_sin
        for d in (0, 1):
            psi_d = psi[d]
            for rows, sids, fsr in plan.columns[d]:
                keep = ctx.track_mask[rows]
                if not keep.any():
                    continue
                rows, sids, fsr = rows[keep], sids[keep], fsr[keep]
                if expf is not None:
                    e = expf[sids]
                else:
                    tau = (
                        ctx.sigma_t[fsr][:, None, :]
                        * plan.seg_len[sids][:, None, None]
                        * inv_sin[None, :, None]
                    )
                    e = ctx.evaluator(tau)
                q = ctx.reduced_source[fsr][:, None, :]
                cur = psi_d[rows]
                dpsi = (cur - q) * e
                psi_d[rows] = cur - dpsi
                dpsi_seg[d, sids] = dpsi
        contrib = np.einsum("spg,sp->sg", dpsi_seg[0] + dpsi_seg[1], plan.seg_weights)
        return tally_from_segments(contrib, plan.seg_fsr, ctx.num_fsrs)
