"""The parent's scalar CMFD code, kept verbatim as test oracles.

Before the coarse solve became whole-array code, ``CmfdProblem.solve``
assembled the operator with a Python loop over coarse cells (scatter
blocks), one over faces (D-tilde, D-hat, the limiter and four matrix
scatters each) and one over leak pairs; ``_restrict`` and ``reduce`` were
``np.add.at`` calls; ``CurrentTally`` folded a sweep with one
``np.add.at`` per direction and end kind and rescaled boundary flux per
direction; ``traversal_entry_cells`` chased zero-segment tracks one at a
time and ``fsr_points`` re-walked the universe tree once per FSR path.
Those bodies live on here so the array code can be compared with them
bit for bit (``tests/solver/test_cmfd_oracle.py``). The only edit is
that :class:`ScalarCmfdProblem` also counts the face-groups its limiter
caps, the number the array code reports as ``CmfdStep.limited``.

Both solved the coarse eigenproblem through the dense inverse of the
operator. :class:`InverseCmfdProblem` keeps that solve, over the shipped
array assembly (``CmfdProblem._assemble``), which is what the scalar
loops are compared with bit for bit. The shipped solve factorises
instead and agrees with the inverse to rounding, not bit for bit
(``tests/solver/test_cmfd_solve.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError
from repro.geometry.geometry import Geometry
from repro.geometry.lattice import Lattice
from repro.solver.cmfd import EXT_CELL, CmfdProblem, CmfdStep, CurrentCapture


class ScalarCmfdProblem(CmfdProblem):
    """:class:`~repro.solver.cmfd.CmfdProblem` with the per-cell /
    per-face / per-leak assembly, ``np.add.at`` restriction and reduction,
    and face set-up it replaced."""

    def finalize_pairs(self, pair_tables: list[np.ndarray]) -> None:
        """Union the per-domain directed-pair tables (rank order) into the
        global table and precompute the face geometry used at solve time."""
        stride = self.num_cells + 1
        keys = [
            table[:, 0] * stride + (table[:, 1] + 1) for table in pair_tables
        ]
        unique_keys = (
            np.unique(np.concatenate(keys)) if keys else np.zeros(0, dtype=np.int64)
        )
        self.pairs = np.stack(
            [unique_keys // stride, unique_keys % stride - 1], axis=1
        ).astype(np.int64)
        self.pair_maps = [np.searchsorted(unique_keys, k) for k in keys]
        counts = [int(k.size) for k in keys]
        self.row_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._build_faces(unique_keys, stride)

    @staticmethod
    def _lookup(sorted_keys: np.ndarray, queries: np.ndarray):
        """Binary-search ``queries`` in ``sorted_keys``: (slots, found)."""
        slots = np.searchsorted(sorted_keys, queries)
        clipped = np.minimum(slots, max(sorted_keys.size - 1, 0))
        if sorted_keys.size:
            found = sorted_keys[clipped] == queries
        else:
            found = np.zeros(queries.size, dtype=bool)
        return clipped, found

    def _build_faces(self, unique_keys: np.ndarray, stride: int) -> None:
        pairs = self.pairs
        assert pairs is not None
        internal = pairs[:, 1] >= 0
        a = np.minimum(pairs[internal, 0], pairs[internal, 1])
        b = np.maximum(pairs[internal, 0], pairs[internal, 1])
        face_keys = np.unique(a * stride + b)
        self.face_a = (face_keys // stride).astype(np.int64)
        self.face_b = (face_keys % stride).astype(np.int64)
        self.face_slot_ab, self.face_has_ab = self._lookup(
            unique_keys, self.face_a * stride + (self.face_b + 1)
        )
        self.face_slot_ba, self.face_has_ba = self._lookup(
            unique_keys, self.face_b * stride + (self.face_a + 1)
        )
        # Face geometry: area and per-side widths along the adjacency axis.
        # Non-grid-neighbour pairs (periodic wrap, diagonal leaps through a
        # corner) get zero area -> D-tilde = 0; D-hat carries them alone.
        grid = self.mesh.grid
        widths = self.mesh.widths
        n_faces = self.face_a.size
        self.face_area = np.zeros(n_faces)
        self.face_ha = np.ones(n_faces)
        self.face_hb = np.ones(n_faces)
        if n_faces:
            delta = grid[self.face_b] - grid[self.face_a]
            manhattan = np.abs(delta).sum(axis=1)
            axis = np.argmax(np.abs(delta), axis=1)
            adjacent = manhattan == 1
            transverse = np.ones(n_faces)
            for k in range(3):
                other = axis != k
                transverse[other] *= widths[self.face_a[other], k]
            self.face_area[adjacent] = transverse[adjacent]
            self.face_ha = widths[self.face_a, axis]
            self.face_hb = widths[self.face_b, axis]
        leak = pairs[:, 1] == EXT_CELL
        self.leak_cells = pairs[leak, 0]
        self.leak_slots = np.nonzero(leak)[0]

    def reduce(self, rows_per_domain: list[np.ndarray]) -> np.ndarray:
        """Rank-ordered reduction of per-domain current tallies onto the
        global pair table — the bitwise-equal analogue of the fission
        reductions."""
        if self.pairs is None:
            raise SolverError("CmfdProblem.reduce before finalize_pairs")
        total = np.zeros((self.pairs.shape[0], self.num_groups))
        for rows, pair_map in zip(rows_per_domain, self.pair_maps):
            np.add.at(total, pair_map, rows)
        return total

    def _restrict(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros((self.num_cells,) + values.shape[1:])
        np.add.at(out, self.cellmap, values)
        return out

    def solve(self, phi: np.ndarray, currents: np.ndarray, keff: float) -> CmfdStep:
        """One coarse eigenvalue solve from the (raw, unnormalised) fine
        flux and the net face currents of the same sweep.

        Every guard that can skip the acceleration (singular matrix,
        non-convergence, loss of positivity) is evaluated from reduced,
        rank-ordered data only, so the skip decision is identical across
        engines; a skipped step returns unit factors and no eigenvalue.
        """
        if self.pairs is None:
            raise SolverError("CmfdProblem.solve before finalize_pairs")
        options = self.options
        num_cells, num_groups = self.num_cells, self.num_groups
        weight = phi * self.volumes[:, None]
        flux = self._restrict(weight)
        collision = self._restrict(self.sigma_t * weight)
        production_g = self._restrict(self.nu_sigma_f * weight)
        fine_production = np.einsum("rg,rg->r", self.nu_sigma_f, weight)
        emission = self._restrict(self.chi * fine_production[:, None])
        scatter = self._restrict(self.sigma_s * weight[:, :, None])
        volume_safe = np.where(self.cell_volumes > 0.0, self.cell_volumes, 1.0)
        x0 = flux / volume_safe[:, None]
        positive = x0 > 0.0
        inv_x0 = np.where(positive, 1.0, 0.0) / np.where(positive, x0, 1.0)

        # Removal / in-scatter blocks: coefficients are integrated rates
        # per unit average flux, exact at the restricted solution.
        removal = np.where(positive, collision * inv_x0, self.cell_volumes[:, None])
        scatter_coef = scatter * inv_x0[:, :, None]
        n = num_cells * num_groups
        matrix = np.zeros((n, n))
        diagonal = np.arange(n)
        matrix[diagonal, diagonal] += removal.ravel()
        for i in range(num_cells):
            block = slice(i * num_groups, (i + 1) * num_groups)
            matrix[block, block] -= scatter_coef[i].T

        # Diffusion coefficients for the D-tilde stabiliser.
        sigt_bar = np.where(
            flux > 0.0, collision / np.where(flux > 0.0, flux, 1.0), 1.0
        )
        diffusion = 1.0 / (3.0 * np.maximum(sigt_bar, 1e-14))

        group_idx = np.arange(num_groups)
        limited = 0
        for f in range(self.face_a.size):
            a, b = int(self.face_a[f]), int(self.face_b[f])
            d_a, d_b = diffusion[a], diffusion[b]
            area, h_a, h_b = self.face_area[f], self.face_ha[f], self.face_hb[f]
            d_tilde = 2.0 * d_a * d_b * area / (d_a * h_b + d_b * h_a)
            net = np.zeros(num_groups)
            if self.face_has_ab[f]:
                net += currents[self.face_slot_ab[f]]
            if self.face_has_ba[f]:
                net -= currents[self.face_slot_ba[f]]
            total = x0[a] + x0[b]
            d_hat = np.where(
                total > 0.0,
                (d_tilde * (x0[a] - x0[b]) - net) / np.where(total > 0.0, total, 1.0),
                0.0,
            )
            # Flux limiter: far from convergence |D-hat| can exceed D-tilde,
            # which breaks the diagonal dominance of the coarse operator and
            # destabilises the acceleration. Where that happens, recompute
            # the pair with |D-hat| = D-tilde such that the FD face current
            # still reproduces the tallied current at the restricted flux
            # (J > 0: D-hat = -D-tilde = -J / 2 x_a; J < 0 symmetric).
            over = np.abs(d_hat) > d_tilde
            limited += int(over.sum())
            if over.any():
                x_a, x_b = x0[a], x0[b]
                outward = net > 0.0
                lim = np.where(
                    outward & (x_a > 0.0),
                    net / np.where(x_a > 0.0, 2.0 * x_a, 1.0),
                    np.where(
                        ~outward & (x_b > 0.0),
                        -net / np.where(x_b > 0.0, 2.0 * x_b, 1.0),
                        0.0,
                    ),
                )
                d_tilde = np.where(over, lim, d_tilde)
                d_hat = np.where(over, np.where(outward, -lim, lim), d_hat)
            ga = a * num_groups + group_idx
            gb = b * num_groups + group_idx
            matrix[ga, ga] += d_tilde - d_hat
            matrix[ga, gb] += -(d_tilde + d_hat)
            matrix[gb, gb] += d_tilde + d_hat
            matrix[gb, ga] += d_hat - d_tilde
        for slot, cell in zip(self.leak_slots, self.leak_cells):
            gi = cell * num_groups + group_idx
            matrix[gi, gi] += currents[slot] * inv_x0[cell]

        # Fission operator, factored: production per cell then chi split.
        fission_coef = production_g * inv_x0
        total_emission = production_g.sum(axis=1)
        chi_bar = np.where(
            total_emission[:, None] > 0.0,
            emission / np.where(total_emission[:, None] > 0.0, total_emission[:, None], 1.0),
            0.0,
        )

        def apply_fission(x: np.ndarray) -> tuple[np.ndarray, float]:
            source = np.einsum("ig,ig->i", fission_coef, x)
            return chi_bar * source[:, None], float(source.sum())

        ones = np.ones((num_cells, num_groups))
        x = x0.copy()
        fission, produced = apply_fission(x)
        if not produced > 0.0:
            return CmfdStep(None, ones, 0, True, limited)
        try:
            inverse = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            return CmfdStep(None, ones, 0, True, limited)

        k = float(keff)
        iterations = 0
        converged = False
        for iterations in range(1, options.max_inner_iterations + 1):
            y = (inverse @ fission.ravel()).reshape(num_cells, num_groups)
            fission_y, produced_y = apply_fission(y)
            if not np.isfinite(produced_y) or not produced_y > 0.0:
                return CmfdStep(None, ones, iterations, True, limited)
            k_new = produced_y / produced
            x_new = y / k_new
            scale = float(np.abs(x_new).max())
            delta_x = float(np.abs(x_new - x).max()) / scale if scale > 0.0 else 0.0
            delta_k = abs(k_new - k)
            x = x_new
            fission = fission_y / k_new
            produced = produced_y / k_new
            k = k_new
            if delta_k < options.tolerance * max(1.0, abs(k)) and (
                delta_x < options.tolerance
            ):
                converged = True
                break
        if not converged:
            return CmfdStep(None, ones, iterations, True, limited)
        if not np.isfinite(k) or not k > 0.0 or not np.all(np.isfinite(x)):
            return CmfdStep(None, ones, iterations, True, limited)
        if np.any(x[positive] <= 0.0):
            return CmfdStep(None, ones, iterations, True, limited)
        factors = np.ones((num_cells, num_groups))
        factors[positive] = 1.0 + options.relaxation * (
            x[positive] / x0[positive] - 1.0
        )
        return CmfdStep(k, factors, iterations, False, limited)


class InverseCmfdProblem(CmfdProblem):
    """:class:`~repro.solver.cmfd.CmfdProblem` with the coarse solve it
    replaced: over the shipped assembly, the dense inverse of the operator
    (``np.linalg.inv``, on however many threads OpenBLAS runs) applied to
    the fission source once per inner iteration."""

    def solve(self, phi: np.ndarray, currents: np.ndarray, keff: float) -> CmfdStep:
        options = self.options
        num_cells, num_groups = self.num_cells, self.num_groups
        matrix, fission_coef, chi_bar, x0, limited = self._assemble(phi, currents)
        positive = x0 > 0.0

        def apply_fission(x: np.ndarray) -> tuple[np.ndarray, float]:
            source = np.einsum("ig,ig->i", fission_coef, x)
            return chi_bar * source[:, None], float(source.sum())

        def skip(iterations: int) -> CmfdStep:
            return CmfdStep(None, np.ones((num_cells, num_groups)), iterations, True, limited)

        x = x0.copy()
        fission, produced = apply_fission(x)
        if not produced > 0.0:
            return skip(0)
        try:
            inverse = np.linalg.inv(matrix)
        except np.linalg.LinAlgError:
            return skip(0)

        k = float(keff)
        for iterations in range(1, options.max_inner_iterations + 1):
            y = (inverse @ fission.ravel()).reshape(num_cells, num_groups)
            fission_y, produced_y = apply_fission(y)
            if not np.isfinite(produced_y) or not produced_y > 0.0:
                return skip(iterations)
            k_new = produced_y / produced
            x_new = y / k_new
            scale = float(np.abs(x_new).max())
            delta_x = float(np.abs(x_new - x).max()) / scale if scale > 0.0 else 0.0
            delta_k = abs(k_new - k)
            x = x_new
            fission = fission_y / k_new
            produced = produced_y / k_new
            k = k_new
            if delta_k < options.tolerance * max(1.0, abs(k)) and (
                delta_x < options.tolerance
            ):
                break
        else:
            return skip(iterations)
        if not np.isfinite(k) or not k > 0.0 or not np.all(np.isfinite(x)):
            return skip(iterations)
        if np.any(x[positive] <= 0.0):
            return skip(iterations)
        factors = np.ones((num_cells, num_groups))
        factors[positive] = 1.0 + options.relaxation * (
            x[positive] / x0[positive] - 1.0
        )
        return CmfdStep(k, factors, iterations, False, limited)


class ScalarCurrentTally:
    """Accumulates net coarse-face currents over the sweeps of one domain.

    Faces are *directed coarse-cell pairs* ``(src, dst)`` (``dst == -1``
    for vacuum leakage), discovered from where the cell id changes along
    each track plus where tracks end. Internal crossings are captured
    in-kernel (:class:`CurrentCapture`); track-end exits need no backend
    support — the post-sweep ``psi`` arrays already hold the exit flux.
    Entries are never tallied: every entry is some traversal's exit, and
    build-time link-weight validation guarantees both sides carry the same
    quadrature weight, which is what makes the cell balance telescope
    exactly (DESIGN.md).
    """

    def __init__(
        self,
        plan,
        cell_of_fsr: np.ndarray,
        exit_dst: np.ndarray,
        num_groups: int,
    ) -> None:
        topology = plan.topology
        self.num_groups = int(num_groups)
        self.is_3d = topology.inv_sin is None
        _scalar_validate_link_weights(topology)
        offsets = plan.offsets
        counts = np.diff(offsets)
        num_tracks = topology.num_tracks
        num_segments = int(plan.num_segments)
        seg_cell = np.asarray(cell_of_fsr, dtype=np.int64)[plan.seg_fsr]

        # Adjacent-segment boundaries inside one track where the cell changes.
        if num_segments > 1:
            not_last = np.ones(num_segments, dtype=bool)
            last = offsets[1:] - 1
            not_last[last[counts > 0]] = False
            crossing = np.nonzero(not_last[:-1] & (seg_cell[:-1] != seg_cell[1:]))[0]
        else:
            crossing = np.zeros(0, dtype=np.int64)
        track_of_seg = np.repeat(np.arange(num_tracks, dtype=np.int64), counts)
        cross_track = track_of_seg[crossing]
        cell_before = seg_cell[crossing]
        cell_after = seg_cell[crossing + 1] if crossing.size else crossing

        # Per-direction internal records: (track, kernel walk step, src,
        # dst). Forward captures fire after traversal position
        # ``s - offsets[t]``. The numpy kernel walks direction 1 over the
        # forward positions from the last down, so a backward capture fires
        # after the step at the position of segment ``s + 1`` — walk step
        # ``max_positions - 1 - (s + 1 - offsets[t])`` — with
        # source/destination swapped. The reference backend walks the
        # reversed track: ``ref_pos`` is the capture's position there.
        pos_fwd = crossing - offsets[cross_track]
        step_bwd = plan.max_positions - 2 - pos_fwd
        pos_bwd = offsets[cross_track + 1] - 2 - crossing
        internal = {
            0: (cross_track, pos_fwd, cell_before, cell_after),
            1: (cross_track, step_bwd, cell_after, cell_before),
        }
        ref_pos = {0: pos_fwd, 1: pos_bwd}

        # Track-end exits: last traversal cell -> destination cell (self
        # pairs — reflective returns into the same cell — are dropped).
        exit_dst = np.asarray(exit_dst, dtype=np.int64)
        if exit_dst.shape != (num_tracks, 2):
            raise SolverError(
                f"exit_dst shape {exit_dst.shape} != ({num_tracks}, 2)"
            )
        has = counts > 0
        exits = {}
        for d in (0, 1):
            tracks = np.nonzero(has)[0]
            src = seg_cell[offsets[1:][has] - 1] if d == 0 else seg_cell[offsets[:-1][has]]
            dst = exit_dst[tracks, d]
            keep = dst != src
            exits[d] = (tracks[keep], src[keep], dst[keep])

        # Global-for-this-domain pair table (sorted by (src, dst) via an
        # encoded key; np.unique keeps everything deterministic).
        all_src = np.concatenate(
            [internal[0][2], internal[1][2], exits[0][1], exits[1][1]]
        )
        all_dst = np.concatenate(
            [internal[0][3], internal[1][3], exits[0][2], exits[1][2]]
        )
        stride = int(seg_cell.max() + 2) if num_segments else 2
        keys = all_src * stride + (all_dst + 1)
        unique_keys = np.unique(keys)
        self.pairs = np.stack(
            [unique_keys // stride, unique_keys % stride - 1], axis=1
        ).astype(np.int64)
        self.num_pairs = int(unique_keys.size)

        # Capture plan: per direction, crossings ordered by (walk step,
        # prefix row) so the kernel writes contiguous slices per step; the
        # reference backend writes each of its positions' crossings to
        # wherever they landed in that order.
        rank = np.empty(num_tracks, dtype=np.int64)
        rank[plan.track_order] = np.arange(num_tracks, dtype=np.int64)
        rows: list[list[np.ndarray]] = []
        dest: list[list[slice]] = []
        track_rows: list[list[np.ndarray]] = []
        track_dest: list[list[np.ndarray]] = []
        out: list[np.ndarray] = []
        self._cap_slots: list[np.ndarray] = []
        self._cap_weights: list[np.ndarray] = []
        weights = topology.weights
        n_crossing_groups = int(plan.max_positions)
        for d in (0, 1):
            track, pos, src, dst = internal[d]
            prow = rank[track]
            order = np.lexsort((prow, pos))
            track, pos, prow = track[order], pos[order], prow[order]
            ref = ref_pos[d][order]
            slot = np.searchsorted(unique_keys, src[order] * stride + (dst[order] + 1))
            starts = np.searchsorted(pos, np.arange(n_crossing_groups + 1))
            rows.append(
                [prow[starts[i]:starts[i + 1]] for i in range(n_crossing_groups)]
            )
            dest.append(
                [slice(starts[i], starts[i + 1]) for i in range(n_crossing_groups)]
            )
            track_rows.append([track[ref == j] for j in range(n_crossing_groups)])
            track_dest.append([np.nonzero(ref == j)[0] for j in range(n_crossing_groups)])
            if self.is_3d:
                out.append(np.zeros((track.size, self.num_groups)))
                self._cap_weights.append(weights[track])
            else:
                num_polar = weights.shape[1]
                out.append(np.zeros((track.size, num_polar, self.num_groups)))
                self._cap_weights.append(weights[track])
            self._cap_slots.append(slot)
        self.capture = CurrentCapture(rows, dest, track_rows, track_dest, out)

        self._exit_tracks: list[np.ndarray] = []
        self._exit_slots: list[np.ndarray] = []
        self._exit_weights: list[np.ndarray] = []
        for d in (0, 1):
            tracks, src, dst = exits[d]
            self._exit_tracks.append(tracks)
            self._exit_slots.append(
                np.searchsorted(unique_keys, src * stride + (dst + 1))
            )
            self._exit_weights.append(weights[tracks])

        #: Coarse cell each traversal enters first — used to rescale the
        #: stored boundary angular fluxes after a prolongation so the next
        #: sweep's incoming flux is consistent with the jumped scalar flux.
        self.entry = scalar_traversal_entry_cells(plan, cell_of_fsr)

        self._currents = np.zeros((self.num_pairs, self.num_groups))

    def scale_boundary_flux(self, psi_in: np.ndarray, cell_factors: np.ndarray) -> None:
        """Scale the sweeper's stored incoming angular flux ``(T, 2, ...)``
        by each traversal's entry-cell prolongation factor (per group)."""
        for d in (0, 1):
            mask = self.entry[:, d] >= 0
            factor = cell_factors[self.entry[mask, d]]
            if psi_in.ndim == 4:  # 2D: (T, 2, P, G)
                psi_in[mask, d] *= factor[:, None, :]
            else:  # 3D: (T, 2, G)
                psi_in[mask, d] *= factor

    def accumulate(self, psi: list[np.ndarray]) -> None:
        """Fold one sweep's captured crossings and track-end exits into the
        running per-pair current tally (quadrature weights applied here)."""
        for d in (0, 1):
            out = self.capture.out[d]
            if out.shape[0]:
                if self.is_3d:
                    contrib = out * self._cap_weights[d][:, None]
                else:
                    contrib = np.einsum("kpg,kp->kg", out, self._cap_weights[d])
                np.add.at(self._currents, self._cap_slots[d], contrib)
            tracks = self._exit_tracks[d]
            if tracks.size:
                values = psi[d][tracks]
                if self.is_3d:
                    contrib = values * self._exit_weights[d][:, None]
                else:
                    contrib = np.einsum("kpg,kp->kg", values, self._exit_weights[d])
                np.add.at(self._currents, self._exit_slots[d], contrib)

    def take(self) -> np.ndarray:
        """Return the accumulated ``(num_pairs, G)`` currents and reset —
        each CMFD solve consumes exactly the last sweep's currents."""
        out = self._currents.copy()
        self._currents[:] = 0.0
        return out

    def reset(self) -> None:
        """Zero all tally state (currents and captured crossings) — used
        when a solver is rebound to new cross sections: the layout is
        XS-independent and reused, the accumulated values are not."""
        self._currents[:] = 0.0
        for out in self.capture.out:
            out[:] = 0.0


def _scalar_validate_link_weights(topology) -> None:
    """Linked traversals must carry equal quadrature weights: an entry is
    only balanced by the upstream exit tally if both sides weigh the
    boundary flux identically (the telescoping argument in DESIGN.md)."""
    weights = topology.weights
    for d in (0, 1):
        live = ~topology.terminal[:, d]
        if not live.any():
            continue
        linked = topology.next_track[live, d]
        if not np.allclose(weights[live], weights[linked], rtol=1e-9, atol=0.0):
            raise SolverError(
                "CMFD current tally requires linked tracks to share quadrature "
                "weights; this track laydown links tracks of unequal weight"
            )


def scalar_traversal_entry_cells(plan, cell_of_fsr: np.ndarray) -> np.ndarray:
    """Coarse cell each traversal *enters* first, ``(T, 2)``; traversals
    with no segments resolve forward through their link chain (vacuum or
    unresolvable chains give ``-1``)."""
    topology = plan.topology
    offsets = plan.offsets
    counts = np.diff(offsets)
    seg_cell = np.asarray(cell_of_fsr, dtype=np.int64)[plan.seg_fsr]
    num_tracks = topology.num_tracks
    entry = np.full((num_tracks, 2), EXT_CELL, dtype=np.int64)
    has = counts > 0
    entry[has, 0] = seg_cell[offsets[:-1][has]]
    entry[has, 1] = seg_cell[offsets[1:][has] - 1]
    for t in np.nonzero(~has)[0]:
        for d in (0, 1):
            ct, cd = int(t), int(d)
            for _ in range(2 * num_tracks + 2):
                if counts[ct] > 0:
                    entry[t, d] = entry[ct, cd]
                    break
                if topology.terminal[ct, cd]:
                    break
                ct, cd = int(topology.next_track[ct, cd]), int(topology.next_dir[ct, cd])
            else:
                raise SolverError("cycle of zero-segment tracks in CMFD entry chase")
    return entry


def scalar_local_exit_destinations(plan, cell_of_fsr: np.ndarray) -> np.ndarray:
    """Destination coarse cell per traversal end, ``(T, 2)``: linked ends
    land in the linked traversal's entry cell, terminal ends (vacuum *and*
    domain interfaces) start as ``-1`` — drivers overwrite interface ends
    from their Route tables."""
    topology = plan.topology
    entry = scalar_traversal_entry_cells(plan, cell_of_fsr)
    dst = np.full((topology.num_tracks, 2), EXT_CELL, dtype=np.int64)
    for d in (0, 1):
        live = ~topology.terminal[:, d]
        dst[live, d] = entry[topology.next_track[live, d], topology.next_dir[live, d]]
    return dst


def scalar_fsr_points(geometry: Geometry) -> np.ndarray:
    """Representative ``(x, y)`` per radial FSR: the centre of its
    innermost lattice cell.

    Walks each enumerated FSR path accumulating lattice cell centres — the
    exact inverse of the translations the point queries apply — so every
    FSR of a pin universe maps to its pin-cell centre (pin resolution).
    Paths that traverse no lattice fall back to the bounding-box centre.
    """
    points = np.empty((geometry.num_fsrs, 2), dtype=np.float64)
    fallback = (
        0.5 * (geometry.xmin + geometry.xmax),
        0.5 * (geometry.ymin + geometry.ymax),
    )
    for path, fsr in geometry._fsr_ids.items():
        node = geometry.root
        x = y = 0.0
        saw_lattice = False
        for element in path:
            if isinstance(node, Lattice):
                _lattice_id, i, j = element
                cx, cy = node.cell_center(i, j)
                x += cx
                y += cy
                saw_lattice = True
                node = node.universes[j][i]
            else:
                cell = next((c for c in node.cells if c.id == element), None)
                if cell is None:
                    raise SolverError(f"FSR path {path} names unknown cell {element}")
                if cell.is_material_cell:
                    node = None
                else:
                    node = cell.fill
        points[fsr] = (x, y) if saw_lattice else fallback
    return points
