"""Structure-of-arrays segment storage (CSR layout over tracks).

Segments dominate ANT-MOC's memory footprint (Table 3: 2D + 3D segments
are ~97% of memory), so their layout matters. :class:`SegmentData` stores
all segments of all tracks in flat, cache-friendly arrays indexed by a
per-track offset table — the same layout the GPU kernels stream.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TrackingError


class SegmentData:
    """Flattened per-track segments.

    Attributes
    ----------
    lengths:
        Segment lengths, shape ``(num_segments,)``, float64.
    fsr_ids:
        FSR id per segment, shape ``(num_segments,)``, int32.
    offsets:
        CSR offsets, shape ``(num_tracks + 1,)``, int64: track ``t`` owns
        segments ``offsets[t]:offsets[t+1]`` in traversal order.
    """

    __slots__ = ("lengths", "fsr_ids", "offsets")

    def __init__(self, lengths, fsr_ids, offsets) -> None:
        self.lengths = np.ascontiguousarray(lengths, dtype=np.float64)
        self.fsr_ids = np.ascontiguousarray(fsr_ids, dtype=np.int32)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if self.lengths.shape != self.fsr_ids.shape or self.lengths.ndim != 1:
            raise TrackingError("segment lengths/fsr_ids must be matching 1-D arrays")
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise TrackingError("offsets must be a non-empty 1-D array")
        if self.offsets[0] != 0 or self.offsets[-1] != self.lengths.size:
            raise TrackingError("offsets must start at 0 and end at num_segments")
        if np.any(np.diff(self.offsets) < 0):
            raise TrackingError("offsets must be non-decreasing")

    @classmethod
    def from_lists(cls, per_track: list[list[tuple[int, float]]]) -> "SegmentData":
        """Build from per-track ``[(fsr_id, length), ...]`` lists."""
        counts = [len(segs) for segs in per_track]
        offsets = np.zeros(len(per_track) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        lengths = np.empty(total, dtype=np.float64)
        fsr_ids = np.empty(total, dtype=np.int32)
        pos = 0
        for segs in per_track:
            for fsr, length in segs:
                fsr_ids[pos] = fsr
                lengths[pos] = length
                pos += 1
        return cls(lengths, fsr_ids, offsets)

    @property
    def num_tracks(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def num_segments(self) -> int:
        return int(self.lengths.size)

    def counts(self) -> np.ndarray:
        """Segments per track, shape ``(num_tracks,)``."""
        return np.diff(self.offsets)

    @property
    def max_segments_per_track(self) -> int:
        return int(self.counts().max()) if self.num_tracks else 0

    def track_segments(self, track: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of ``(fsr_ids, lengths)`` for one track."""
        lo, hi = int(self.offsets[track]), int(self.offsets[track + 1])
        return self.fsr_ids[lo:hi], self.lengths[lo:hi]

    def track_length(self, track: int) -> float:
        lo, hi = int(self.offsets[track]), int(self.offsets[track + 1])
        return float(self.lengths[lo:hi].sum())

    def fsr_path_lengths(self, num_fsrs: int, weights_per_segment=None) -> np.ndarray:
        """Total (optionally weighted) path length accumulated in each FSR."""
        contrib = self.lengths if weights_per_segment is None else self.lengths * weights_per_segment
        return np.bincount(self.fsr_ids, weights=contrib, minlength=num_fsrs)

    def memory_bytes(self) -> int:
        """Actual storage footprint of the arrays."""
        return int(self.lengths.nbytes + self.fsr_ids.nbytes + self.offsets.nbytes)

    def __repr__(self) -> str:
        return f"SegmentData(tracks={self.num_tracks}, segments={self.num_segments})"


def csr_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated ``arange(starts[i], starts[i] + counts[i])`` plus the
    owning row ``i`` of every element."""
    rows = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    first = np.cumsum(counts) - counts
    within = np.arange(rows.size, dtype=np.int64) - first[rows]
    return starts[rows] + within, rows


def csr_searchsorted(
    flat: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    query: np.ndarray,
    side: str = "right",
) -> np.ndarray:
    """Lock-step ``lo + np.searchsorted(flat[lo:hi], query, side)`` per row.

    Every row bisects its own sorted window of ``flat``; all rows advance
    together, so the cost is ``log2(longest window)`` numpy passes. The
    insertion point in a sorted window is unique, hence equal to numpy's.
    """
    lo = lo.copy()
    hi = hi.copy()
    if lo.size == 0:
        return lo
    before = np.less_equal if side == "right" else np.less
    last = flat.size - 1
    for _ in range(int((hi - lo).max()).bit_length()):
        mid = (lo + hi) >> 1
        right = before(flat[np.minimum(mid, last)], query) & (lo < hi)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo
