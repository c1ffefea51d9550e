"""The track manager: resident/temporary track split (paper Sec. 4.1).

Tracks are ranked by their estimated segment count (Eq. 4 drives the
estimate — segment counts scale with track span) and the largest are made
*resident* — traced once, kept in device memory — until the resident
budget (6.144 GB in the paper's experiments) is filled. The remaining
*temporary* tracks are re-traced on every sweep and their segments
discarded afterwards. Preferring segment-rich tracks maximises the
regeneration work avoided per resident byte.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_RESIDENT_MEMORY_BYTES
from repro.tracks.generator import TrackGenerator3D
from repro.tracks.raytrace3d import TrackTable3D, trace_3d_batch
from repro.tracks.segments import SegmentData, csr_ranges, csr_searchsorted
from repro.tracks.track import Track3D
from repro.trackmgmt.strategy import BYTES_PER_SEGMENT, StorageStrategy
from repro.solver.sweep3d import TransportSweep3D


def estimate_track_segments(trackgen: TrackGenerator3D, track: Track3D) -> int:
    """Estimate a 3D track's segment count without tracing it.

    Counts the radial breakpoints inside the track's ``s`` span (via binary
    search on the chain's precomputed 2D segmentation) plus the axial
    planes crossed — each breakpoint starts one more segment. This is the
    per-track refinement of the paper's Eq. (4) linear segment model.
    """
    table = trackgen.chain_tables[track.chain]
    z_edges = trackgen.geometry3d.axial_mesh.z_edges
    s0, s1 = track.s0, track.s1
    length = table.length
    if trackgen.is_chain_closed(track.chain):
        # Unrolled span over a periodic table.
        full_wraps = int((s1 - s0) // length)
        radial = full_wraps * (table.num_intervals)
        r0 = s0 % length
        r1 = s1 - (full_wraps * length) - (s0 - r0)
        lo = np.searchsorted(table.bounds, r0, side="right")
        if r1 <= length:
            hi = np.searchsorted(table.bounds, r1, side="left")
            radial += max(int(hi - lo), 0)
        else:
            hi = np.searchsorted(table.bounds, r1 - length, side="left")
            radial += int(table.bounds.size - 1 - lo) + 1 + int(hi - 1)
    else:
        lo = np.searchsorted(table.bounds, s0, side="right")
        hi = np.searchsorted(table.bounds, s1, side="left")
        radial = max(int(hi - lo), 0)
    zlo, zhi = sorted((track.z0, track.z1))
    k_lo = np.searchsorted(z_edges, zlo, side="right")
    k_hi = np.searchsorted(z_edges, zhi, side="left")
    axial = max(int(k_hi - k_lo), 0)
    return radial + axial + 1


def estimate_segments_batch(table: TrackTable3D) -> np.ndarray:
    """:func:`estimate_track_segments` for every track of ``table`` at once.

    Same arithmetic per element, with each ``searchsorted`` a lock-step
    bisection over the table's CSR chain bounds.
    """
    s0, s1 = table.s0, table.s1
    length = table.chain_length[table.chain]
    b_lo = table.bound_ptr[table.chain]
    b_hi = table.bound_ptr[table.chain + 1]
    num_intervals = b_hi - b_lo - 1

    def search(query: np.ndarray, side: str) -> np.ndarray:
        return csr_searchsorted(table.bounds, b_lo, b_hi, query, side) - b_lo

    # Open chains: breakpoints strictly inside (s0, s1).
    opened = np.maximum(search(s1, "left") - search(s0, "right"), 0)
    # Closed chains: unrolled span over the periodic table.
    full_wraps = np.floor_divide(s1 - s0, length)
    r0 = np.mod(s0, length)
    r1 = s1 - (full_wraps * length) - (s0 - r0)
    lo = search(r0, "right")
    within = np.maximum(search(r1, "left") - lo, 0)
    across = (num_intervals - lo) + 1 + (search(r1 - length, "left") - 1)
    closed = full_wraps.astype(np.int64) * num_intervals + np.where(
        r1 <= length, within, across
    )
    radial = np.where(table.wrap, closed, opened)

    k_lo = np.searchsorted(table.z_edges, np.minimum(table.z0, table.z1), side="right")
    k_hi = np.searchsorted(table.z_edges, np.maximum(table.z0, table.z1), side="left")
    return radial + np.maximum(k_hi - k_lo, 0) + 1


class ManagedStorage(StorageStrategy):
    """Manager: resident tracks cached, temporary tracks regenerated."""

    name = "MANAGER"

    def __init__(
        self,
        trackgen: TrackGenerator3D,
        resident_memory_bytes: int = DEFAULT_RESIDENT_MEMORY_BYTES,
    ) -> None:
        super().__init__(trackgen)
        self.resident_memory_bytes_budget = int(resident_memory_bytes)
        table = trackgen.track_table()
        estimates = estimate_segments_batch(table)
        costs = estimates.tolist()
        # Greedy selection: largest estimated segment count first.
        budget_segments = self.resident_memory_bytes_budget // BYTES_PER_SEGMENT
        resident_mask = np.zeros(table.num_tracks, dtype=bool)
        used = 0
        for uid in np.argsort(-estimates, kind="stable").tolist():
            if used + costs[uid] > budget_segments:
                continue
            used += costs[uid]
            resident_mask[uid] = True
        self.resident_mask = resident_mask
        self.estimated_segments = estimates
        # Resident tracks are traced once, in one subset call; temporaries
        # in one subset call per sweep. Neither count ever changes, so the
        # gather that interleaves the two into uid order is built on the
        # first assembly and reused.
        self._resident_uids = np.flatnonzero(resident_mask)
        self._temporary_uids = np.flatnonzero(~resident_mask)
        self._resident = trace_3d_batch(table, self._resident_uids)
        self._merge: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------- queries

    @property
    def num_resident(self) -> int:
        return int(self._resident_uids.size)

    @property
    def num_temporary(self) -> int:
        return int(self._temporary_uids.size)

    @property
    def resident_fraction(self) -> float:
        total = self.resident_mask.size
        return self.num_resident / total if total else 0.0

    def resident_memory_bytes(self) -> int:
        return self._resident.num_segments * BYTES_PER_SEGMENT

    # ------------------------------------------------------------ sweeping

    def _assemble(self) -> SegmentData:
        """Merge resident (cached) and temporary (fresh) segmentations."""
        resident = self._resident
        if not self.num_temporary:
            # Every row, already in uid order: each sweep gets this one
            # object, so the sweeper's plan (and exp table) is built once.
            return resident
        temporary = trace_3d_batch(self.trackgen.track_table(), self._temporary_uids)
        if self._merge is None:
            # Rows of [resident | temporary] in uid order, expanded to a
            # per-segment gather.
            row_of_uid = np.argsort(
                np.concatenate([self._resident_uids, self._temporary_uids])
            )
            starts = np.concatenate(
                [resident.offsets[:-1], resident.num_segments + temporary.offsets[:-1]]
            )[row_of_uid]
            counts = np.concatenate([resident.counts(), temporary.counts()])[row_of_uid]
            offsets = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            self._merge = (csr_ranges(starts, counts)[0], offsets)
        gather, offsets = self._merge
        return SegmentData(
            np.concatenate([resident.lengths, temporary.lengths])[gather],
            np.concatenate([resident.fsr_ids, temporary.fsr_ids])[gather],
            offsets,
        )

    def reference_segments(self) -> SegmentData:
        return self._assemble()

    def sweep(self, sweeper: TransportSweep3D, reduced_source: np.ndarray) -> np.ndarray:
        segments = self._assemble()
        self.regenerated_tracks_total += self.num_temporary
        self.sweeps_served += 1
        return sweeper.sweep(segments, reduced_source)

    def __repr__(self) -> str:
        return (
            f"ManagedStorage(resident={self.num_resident}/{self.resident_mask.size}, "
            f"budget={self.resident_memory_bytes_budget} B)"
        )
