"""Seed-faithful lockstep kernel kept as the equivalence baseline.

This backend reproduces the pre-backend sweep loop operation for
operation: per-position exponential evaluation and a per-position
``np.add.at`` tally scatter. It exists so that the cross-backend
equivalence suite (``tests/solver/test_backends.py``) has a stable
oracle, and ``--backend reference`` runs the exact seed algorithm. Its
two seed bodies stay apart: :meth:`ReferenceSweepBackend.sweep` picks the
one of the plan's dimension.
"""

from __future__ import annotations

import numpy as np

from repro.solver.backends.base import KernelBackend, SweepContext
from repro.solver.backends.plan import SweepPlan


class ReferenceSweepBackend(KernelBackend):
    """The seed sweep loop (per-position exp + scatter-add)."""

    name = "reference"

    def sweep(self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext) -> np.ndarray:
        body = self.sweep3d if plan.topology.is_3d else self.sweep2d
        return body(plan, psi, ctx)

    def sweep2d(
        self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext
    ) -> np.ndarray:
        num_groups = psi[0].shape[2]
        tally = np.zeros((ctx.num_fsrs, num_groups))
        sigma_t = ctx.sigma_t
        inv_sin = plan.topology.inv_sin
        weights = plan.topology.weights
        index = (plan.idx_fwd, plan.idx_bwd)
        for i in range(plan.max_positions):
            for d in (0, 1):
                idx = index[d][:, i]
                valid = idx >= 0
                if not valid.any():
                    continue
                sid = idx[valid]
                fsr = plan.seg_fsr[sid]
                tau = (
                    sigma_t[fsr][:, None, :]
                    * plan.seg_len[sid][:, None, None]
                    * inv_sin[None, :, None]
                )
                exp_f = ctx.evaluator(tau)
                q = ctx.reduced_source[fsr][:, None, :]
                cur = psi[d][valid]
                dpsi = (cur - q) * exp_f
                psi[d][valid] = cur - dpsi
                if ctx.capture is not None:
                    tracks = ctx.capture.track_rows[d][i]
                    if tracks.size:
                        ctx.capture.out[d][ctx.capture.track_dest[d][i]] = psi[d][tracks]
                contrib = np.einsum("vp,vpg->vg", weights[valid], dpsi)
                np.add.at(tally, fsr, contrib)
        return tally

    def sweep3d(
        self, plan: SweepPlan, psi: list[np.ndarray], ctx: SweepContext
    ) -> np.ndarray:
        num_groups = psi[0].shape[1]
        tally = np.zeros((ctx.num_fsrs, num_groups))
        sigma_t = ctx.sigma_t
        weights = plan.topology.weights
        index = (plan.idx_fwd, plan.idx_bwd)
        for i in range(plan.max_positions):
            for d in (0, 1):
                idx = index[d][:, i]
                valid = idx >= 0
                if not valid.any():
                    continue
                sid = idx[valid]
                fsr = plan.seg_fsr[sid]
                tau = sigma_t[fsr] * plan.seg_len[sid][:, None]
                exp_f = ctx.evaluator(tau)
                q = ctx.reduced_source[fsr]
                cur = psi[d][valid]
                dpsi = (cur - q) * exp_f
                psi[d][valid] = cur - dpsi
                if ctx.capture is not None:
                    tracks = ctx.capture.track_rows[d][i]
                    if tracks.size:
                        ctx.capture.out[d][ctx.capture.track_dest[d][i]] = psi[d][tracks]
                contrib = weights[valid][:, None] * dpsi
                np.add.at(tally, fsr, contrib)
        return tally
