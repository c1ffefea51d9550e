"""Default NumPy sweep kernel: one fused lockstep loop over a sweep plan.

The plan sorts tracks by descending segment count and lays segments out
position-major, so the tracks active at lockstep position ``i`` are a
*prefix* of the sorted flux array and every per-position buffer is the
slice ``[col_starts[i], col_starts[i + 1])``. :func:`lockstep` is the only
position loop in ``src/``: the 2D, 3D and scenario-widened sweeps differ
in the trailing axes of their buffers — ``(P, G)``, ``(G,)``, ``(S, P, G)``.

* **Step** (Algorithm 1: every (track, direction) traversal advances one
  segment per step). Both directions share ``col_starts``, so one step
  advances ``cur[(2, n, ...)]`` with three in-place ufuncs on the ``dpsi``
  slice, which enters holding the hoisted source lookup (one ``np.take``
  per direction per sweep): ``dp = view - dp``, ``dp *= F(tau)`` from the
  plan's cached table, ``view -= dp``. A 3D step then weights its slice,
  still in cache: ``dp *= weights[:n]``, the first ``n`` rows of the
  workspace's ``(T, G)`` track weights in sorted order (the plan's
  ``pos_weights[d][lo:hi]``, value for value). No step allocates.
* **Reduce.** ``dpsi`` then holds every segment's delta-psi: per direction
  one ``bincount`` over the flat ``fsr * G + g`` index sums it, after (2D)
  one polar ``einsum`` contracts it to ``(S, G)``. ``bincount`` adds a
  bin's terms in array order — segment order, as the per-group bincount it
  replaces — so the tally is bitwise unchanged. The widened sweep reduces
  per state with the single-state expression on ``dpsi[d][:, s]``.
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

import numpy as np

from repro.errors import SolverError
from repro.solver.backends.base import KernelBackend, SweepContext, tally_from_segments
from repro.solver.backends.plan import SweepPlan


class SweepWorkspace:
    """The lockstep kernel's buffers for one sweeper over one plan layout:
    ``cur (2, T, ...)``, ``dpsi (2, S, ...)``, the pre-sliced step list, the
    polar contraction's output (2D) or the sorted track weights (3D) and
    the flat tally index."""

    __slots__ = ("cur", "dpsi", "contrib", "weights", "steps", "flat", "_starts", "_fsr")

    def __init__(self) -> None:
        self._starts = self._fsr = None

    def bind(self, plan: SweepPlan, trailing: tuple) -> "SweepWorkspace":
        """Allocate on a new layout (``col_starts`` survives ``rebind``) or
        new trailing axes; a rebound plan only refreshes the tally index."""
        starts = plan.col_starts
        if self._starts is not starts or self.dpsi.shape[2:] != trailing:
            self.cur = np.empty((2, plan.topology.num_tracks) + trailing)
            self.dpsi = np.empty((2, plan.num_segments) + trailing)
            # 3D has no polar axis to contract: the lockstep weights dpsi
            # by the track weights in sorted order instead.
            self.contrib = self.weights = None
            if trailing[:-1]:
                self.contrib = np.empty((plan.num_segments, trailing[-1]))
            else:
                weights = plan.topology.weights[plan.track_order, None]
                self.weights = np.repeat(weights, trailing[-1], axis=1)
            self.flat = np.empty((2, plan.num_segments, trailing[-1]), dtype=np.int64)
            self.steps = [
                (lo, hi, self.cur[:, : hi - lo], self.dpsi[:, lo:hi],
                 None if self.weights is None else self.weights[: hi - lo])
                for lo, hi in zip(starts[:-1].tolist(), starts[1:].tolist())
                if hi > lo  # column widths only shrink
            ]
            self._starts, self._fsr = starts, None
        if self._fsr is not plan.pos_fsr:
            for d, fsr in enumerate(plan.pos_fsr):
                np.add(fsr[:, None] * trailing[-1], np.arange(trailing[-1]), out=self.flat[d])
            self._fsr = plan.pos_fsr
        return self

    def load(self, plan: SweepPlan, psi: list[np.ndarray], source: np.ndarray) -> None:
        """Boundary flux into prefix order and ``source[fsr]`` into ``dpsi``;
        ``source`` is ``(R, ...)`` without the polar axis, broadcast here.
        The exp table (or its per-position fallback) indexes ``sigma_t``
        with the same ids, so ``clip`` never clips: it only skips numpy's
        defensive copy of ``out``."""
        if self.contrib is not None:
            source = np.broadcast_to(
                np.expand_dims(source, -2), source.shape[:1] + self.dpsi.shape[2:]
            )
        for d in (0, 1):
            np.take(psi[d], plan.track_order, axis=0, out=self.cur[d], mode="clip")
            np.take(source, plan.pos_fsr[d], axis=0, out=self.dpsi[d], mode="clip")

    def store(self, plan: SweepPlan, psi: list[np.ndarray]) -> None:
        """Exit fluxes back into track order."""
        for d in (0, 1):
            psi[d][plan.track_order] = self.cur[d]

    def reduce(self, plan: SweepPlan, num_fsrs: int, state: int | None = None) -> np.ndarray:
        """The ``(R, G)`` tally (of one state of a widened sweep)."""
        tally = np.zeros((num_fsrs, self.dpsi.shape[-1]))
        for d in (0, 1):
            dpsi = self.dpsi[d] if state is None else self.dpsi[d][:, state]
            if self.contrib is None:  # 3D: weighted in the lockstep
                contrib = dpsi
            else:
                contrib = np.einsum("spg,sp->sg", dpsi, plan.pos_weights[d], out=self.contrib)
            bins = np.bincount(self.flat[d].ravel(), contrib.ravel(), tally.size)
            tally += bins.reshape(tally.shape)
        return tally


def lockstep(work: SweepWorkspace, table: np.ndarray | None, expf_at, capture) -> None:
    """Advance every (track, direction) traversal one segment per step,
    leaving exit fluxes in ``work.cur`` and per-segment delta-psi in
    ``work.dpsi`` (which enters holding the source lookup). ``table`` is the
    ``(2, S, ...)`` exp table; when it was too large to build,
    ``expf_at(d, lo, hi)`` evaluates one position's factors instead. A 3D
    step leaves its delta-psi weighted (``weight`` is ``None`` in 2D)."""
    for i, (lo, hi, view, dp, weight) in enumerate(work.steps):
        np.subtract(view, dp, out=dp)
        if table is not None:
            np.multiply(dp, table[:, lo:hi], out=dp)
        else:
            for d in (0, 1):
                np.multiply(dp[d], expf_at(d, lo, hi), out=dp[d])
        np.subtract(view, dp, out=view)
        if weight is not None:
            np.multiply(dp, weight, out=dp)
        if capture is not None:
            for d in (0, 1):
                rows = capture.rows[d][i]
                if rows.size:
                    # A crossing after position i implies the track has
                    # >= i + 2 segments, so its prefix row is in view.
                    capture.out[d][capture.dest[d][i]] = view[d, rows]


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
        """The fused kernel: 2D and 3D differ only in ``psi``'s trailing axes."""
        table = plan.pos_expf(ctx.sigma_t, ctx.evaluator)
        work = (ctx.workspace or SweepWorkspace()).bind(plan, psi[0].shape[1:])
        entered = time.perf_counter()
        work.load(plan, psi, ctx.reduced_source)
        gathered = time.perf_counter()

        def expf_at(d: int, lo: int, hi: int) -> np.ndarray:
            return plan.pos_expf_block(ctx.sigma_t, ctx.evaluator, d, lo, hi)

        lockstep(work, table, expf_at, ctx.capture)
        work.store(plan, psi)
        ctx.marks = (entered, gathered, time.perf_counter())
        return work.reduce(plan, ctx.num_fsrs)

    def _sweep2d_masked(
        self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext
    ) -> np.ndarray:
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
