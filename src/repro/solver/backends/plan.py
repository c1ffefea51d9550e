"""Precompiled sweep plans: everything a transport sweep can hoist.

The seed sweeps rebuilt position-index matrices, ragged-track masks,
per-position gather indices and per-segment FSR lookups on every sweep (or
every sweeper construction). ANT-MOC's GPU kernels instead precompile this
once per track layout and stream immutable structure-of-arrays buffers.
:class:`SweepPlan` is the CPU analogue: built once per (topology, segment
layout) pair and reused across all power iterations — and, for OTF/Manager
re-segmentation, across regenerations that share the same layout.

Two layers:

* :class:`TrackTopology` — segment-independent link tables and sweep
  weights of one track laydown (cached on the track generator);
* :class:`SweepPlan` — topology plus the flattened segment buffers, the
  dense position-index matrices and the per-position gather lists the
  kernels iterate over.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SolverError

#: Largest precomputed exp-table size (elements) before the kernels fall
#: back to evaluating the exponential per lockstep position. Keeps huge
#: cases from materialising a (segments, polar, groups) cube.
MAX_EXPF_ELEMENTS = 40_000_000

#: Segments per evaluator call while a position-major table is filled.
#: The evaluator is elementwise, so the block size never shows in the
#: values; it only bounds the build's temporaries (tau, table indices,
#: slope/intercept gathers — about five table-sized arrays when evaluated
#: whole) to a few MB.
EXPF_BLOCK_SEGMENTS = 8192


def build_position_index(offsets: np.ndarray, reverse: bool) -> np.ndarray:
    """CSR offsets -> dense (tracks, max_count) segment-id matrix, -1 padded.

    Row ``t`` lists track ``t``'s segment ids in traversal order (reversed
    when ``reverse``), so column ``i`` holds "the i-th segment of every
    track" — the lockstep axis of the vectorised sweep.
    """
    counts = np.diff(offsets)
    num_tracks = counts.size
    max_count = int(counts.max()) if num_tracks else 0
    index = np.full((num_tracks, max_count), -1, dtype=np.int64)
    cols = np.arange(max_count)
    mask = cols[None, :] < counts[:, None]
    if reverse:
        values = (offsets[1:] - 1)[:, None] - cols[None, :]
    else:
        values = offsets[:-1][:, None] + cols[None, :]
    index[mask] = values[mask]
    return index


class TrackTopology:
    """Link tables and sweep weights of one track layout (no segments).

    2D topologies carry per-polar sweep weights ``(T, P)`` and the inverse
    polar sines; 3D topologies carry one weight per track ``(T,)`` and
    ``inv_sin is None``.
    """

    __slots__ = (
        "num_tracks",
        "num_polar",
        "weights",
        "next_track",
        "next_dir",
        "terminal",
        "interface",
        "inv_sin",
    )

    def __init__(
        self,
        weights: np.ndarray,
        next_track: np.ndarray,
        next_dir: np.ndarray,
        terminal: np.ndarray,
        interface: np.ndarray,
        inv_sin: np.ndarray | None = None,
    ) -> None:
        self.weights = np.ascontiguousarray(weights, dtype=np.float64)
        self.next_track = np.ascontiguousarray(next_track, dtype=np.int64)
        self.next_dir = np.ascontiguousarray(next_dir, dtype=np.int64)
        self.terminal = np.ascontiguousarray(terminal, dtype=bool)
        self.interface = np.ascontiguousarray(interface, dtype=bool)
        self.inv_sin = None if inv_sin is None else np.ascontiguousarray(inv_sin)
        self.num_tracks = int(self.next_track.shape[0])
        self.num_polar = int(self.weights.shape[1]) if self.weights.ndim == 2 else 0

    @property
    def is_3d(self) -> bool:
        return self.inv_sin is None

    @classmethod
    def from_links(
        cls, table, weights: np.ndarray, inv_sin: np.ndarray | None
    ) -> "TrackTopology":
        """Build the link tables from a track table's ``(T, 2)`` link
        columns (``TrackTable2D`` and ``TrackTable3D`` share the
        convention: column 0 the forward exit, ``link_uid < 0`` where the
        flux leaves the domain)."""
        terminal = table.link_uid < 0
        return cls(
            weights,
            np.maximum(table.link_uid, 0),
            ~(table.link_fwd | terminal),
            terminal,
            table.interface & terminal,
            inv_sin,
        )


class SweepPlan:
    """Immutable precompiled sweep plan over one segmentation.

    Attributes
    ----------
    topology:
        The :class:`TrackTopology` the plan was compiled against.
    seg_fsr / seg_len / offsets:
        C-contiguous SoA segment buffers (int64 / float64 / int64).
    idx_fwd / idx_bwd:
        Dense position-index matrices (lockstep axis layout). Built on
        first access: only the reference backend reads them.
    columns:
        ``columns[d][i] = (rows, sids, fsr)`` — the track rows active at
        lockstep position ``i`` in direction ``d``, their segment ids and
        the pre-gathered FSR ids. Built on first access: only the masked
        2D sweep (L2 angle decomposition) reads them.
    seg_weights:
        Per-segment sweep weights: ``(S,)`` for 3D, ``(S, P)`` for 2D.
    track_order / col_starts / col_counts / pos_fsr / pos_len / pos_weights:
        The prefix-packed position-major layout: tracks sorted by
        descending segment count make the active set at every lockstep
        position a *prefix* of the sorted order, and segments re-ordered
        position-major per direction make every per-position buffer a
        contiguous slice ``[col_starts[i] : col_starts[i] + col_counts[i]]``.
        The fast kernel therefore runs on views, with the per-sweep source
        lookup as its only fancy gather.
    """

    __slots__ = (
        "topology",
        "segments",
        "seg_fsr",
        "seg_len",
        "offsets",
        "_idx_fwd",
        "_idx_bwd",
        "_columns",
        "seg_weights",
        "max_positions",
        "num_segments",
        "track_order",
        "col_starts",
        "col_counts",
        "pos_order",
        "pos_fsr",
        "pos_len",
        "pos_weights",
        "_expf_cache",
        "_pos_expf_cache",
    )

    def __init__(self, topology: TrackTopology, segments) -> None:
        if segments.num_tracks != topology.num_tracks:
            raise SolverError(
                f"segment data covers {segments.num_tracks} tracks, "
                f"topology has {topology.num_tracks}"
            )
        self.topology = topology
        self.segments = segments
        self.offsets = np.ascontiguousarray(segments.offsets, dtype=np.int64)
        self.seg_len = np.ascontiguousarray(segments.lengths, dtype=np.float64)
        self.seg_fsr = np.ascontiguousarray(segments.fsr_ids, dtype=np.int64)
        self.num_segments = int(self.seg_len.size)
        self._idx_fwd = self._idx_bwd = self._columns = None
        counts = np.diff(self.offsets)
        self.max_positions = int(counts.max()) if counts.size else 0
        self.seg_weights = np.repeat(topology.weights, counts, axis=0)
        self._build_prefix_layout(counts)
        self._bind_pos_segments()
        self._expf_cache: tuple | None = None
        self._pos_expf_cache: tuple | None = None

    def _build_prefix_layout(self, counts: np.ndarray) -> None:
        """Sort tracks by descending segment count and lay segments out
        position-major, so each lockstep position is a contiguous slice
        over a prefix of the sorted tracks."""
        order = np.argsort(-counts, kind="stable")
        self.track_order = order
        if self.max_positions:
            hist = np.bincount(counts, minlength=self.max_positions + 1)
            active = counts.size - np.cumsum(hist)[: self.max_positions]
        else:
            active = np.zeros(0, dtype=np.int64)
        starts = np.zeros(self.max_positions + 1, dtype=np.int64)
        np.cumsum(active, out=starts[1:])
        self.col_starts = starts
        self.col_counts = active
        pos_order = []
        for reverse in (False, True):
            sids = np.empty(self.num_segments, dtype=np.int64)
            for i in range(self.max_positions):
                rows = order[: active[i]]
                if reverse:
                    sids[starts[i] : starts[i + 1]] = self.offsets[rows + 1] - 1 - i
                else:
                    sids[starts[i] : starts[i + 1]] = self.offsets[rows] + i
            pos_order.append(sids)
        self.pos_order = tuple(pos_order)
        self.pos_weights = tuple(self.seg_weights[s] for s in self.pos_order)

    def _bind_pos_segments(self) -> None:
        self.pos_fsr = tuple(self.seg_fsr[s] for s in self.pos_order)
        self.pos_len = tuple(self.seg_len[s] for s in self.pos_order)

    @property
    def idx_fwd(self) -> np.ndarray:
        if self._idx_fwd is None:
            self._idx_fwd = build_position_index(self.offsets, reverse=False)
        return self._idx_fwd

    @property
    def idx_bwd(self) -> np.ndarray:
        if self._idx_bwd is None:
            self._idx_bwd = build_position_index(self.offsets, reverse=True)
        return self._idx_bwd

    @property
    def columns(self) -> tuple:
        if self._columns is None:
            self._columns = (
                self._build_columns(self.idx_fwd),
                self._build_columns(self.idx_bwd),
            )
        return self._columns

    def _build_columns(self, index: np.ndarray):
        cols = []
        for i in range(index.shape[1]):
            idx = index[:, i]
            rows = np.nonzero(idx >= 0)[0]
            sids = idx[rows]
            cols.append((rows, sids, self.seg_fsr[sids]))
        return cols

    # ---------------------------------------------------------------- reuse

    def rebind(self, segments) -> "SweepPlan":
        """A plan for ``segments`` reusing this plan's layout products.

        OTF/Manager strategies regenerate segment *values* every sweep but
        keep the per-track layout (offsets) identical; the expensive index
        matrices and position masks carry over unchanged, only the FSR/
        length gathers are refreshed. Falls back to a full rebuild when
        the layout actually differs.
        """
        if not np.array_equal(self.offsets, segments.offsets):
            return SweepPlan(self.topology, segments)
        clone = object.__new__(SweepPlan)
        clone.topology = self.topology
        clone.segments = segments
        clone.offsets = self.offsets
        clone.seg_len = np.ascontiguousarray(segments.lengths, dtype=np.float64)
        clone.seg_fsr = np.ascontiguousarray(segments.fsr_ids, dtype=np.int64)
        clone.num_segments = self.num_segments
        clone._idx_fwd = self._idx_fwd
        clone._idx_bwd = self._idx_bwd
        clone._columns = None
        clone.max_positions = self.max_positions
        clone.seg_weights = self.seg_weights
        clone.track_order = self.track_order
        clone.col_starts = self.col_starts
        clone.col_counts = self.col_counts
        clone.pos_order = self.pos_order
        clone.pos_weights = self.pos_weights
        clone._bind_pos_segments()
        clone._expf_cache = None
        clone._pos_expf_cache = None
        return clone

    # ----------------------------------------------------------- exp tables

    def expf_elements(self, num_groups: int) -> int:
        """Size of the precomputed per-segment exponential table."""
        polar = self.topology.num_polar if not self.topology.is_3d else 1
        return self.num_segments * max(polar, 1) * num_groups

    def segment_expf(self, sigma_t: np.ndarray, evaluator) -> np.ndarray | None:
        """Per-segment ``F(tau)`` table, cached per (sigma_t, evaluator).

        Cross sections are constant across power iterations, so the whole
        exponential evaluation — the transcendental-heavy inner loop of
        the seed sweep — amortises to a single vectorised pass per solve.
        Returns ``None`` when the table would exceed
        :data:`MAX_EXPF_ELEMENTS` (kernels then evaluate per position).
        """
        cached = self._expf_cache
        if (
            cached is not None
            and cached[0] is sigma_t
            and cached[1] is evaluator
        ):
            return cached[2]
        if self.expf_elements(sigma_t.shape[1]) > MAX_EXPF_ELEMENTS:
            return None
        if self.topology.is_3d:
            tau = sigma_t[self.seg_fsr] * self.seg_len[:, None]
        else:
            tau = (
                sigma_t[self.seg_fsr][:, None, :]
                * self.seg_len[:, None, None]
                * self.topology.inv_sin[None, :, None]
            )
        expf = evaluator(tau)
        self._expf_cache = (sigma_t, evaluator, expf)
        return expf

    def pos_expf(self, sigma_t: np.ndarray, evaluator) -> np.ndarray | None:
        """Position-major ``F(tau)`` table ``(2, S, ...)``, direction first.

        Same caching and size policy as :meth:`segment_expf` (the guard
        accounts for holding both directions). ``table[d]`` lines up with
        ``pos_fsr[d]``/``pos_len[d]``, so the lockstep kernel reads both
        directions of one position as the slice ``table[:, lo:hi]``.
        """
        cached = self._pos_expf_cache
        if (
            cached is not None
            and cached[0] is sigma_t
            and cached[1] is evaluator
        ):
            return cached[2]
        if 2 * self.expf_elements(sigma_t.shape[1]) > MAX_EXPF_ELEMENTS:
            return None
        trailing = sigma_t.shape[1:]
        if not self.topology.is_3d:
            trailing = (self.topology.num_polar,) + trailing
        table = np.empty((2, self.num_segments) + trailing)
        self.fill_pos_expf(table, sigma_t, evaluator)
        self._pos_expf_cache = (sigma_t, evaluator, table)
        return table

    def fill_pos_expf(self, out: np.ndarray, sigma_t: np.ndarray, evaluator) -> None:
        """Write the position-major table into ``out`` ``(2, S, ...)`` in
        blocks of :data:`EXPF_BLOCK_SEGMENTS` segments (``out`` may be one
        state's strided slice of a scenario-widened table)."""
        for d in (0, 1):
            for lo in range(0, self.num_segments, EXPF_BLOCK_SEGMENTS):
                hi = min(lo + EXPF_BLOCK_SEGMENTS, self.num_segments)
                out[d, lo:hi] = self.pos_expf_block(sigma_t, evaluator, d, lo, hi)

    def pos_expf_block(
        self, sigma_t: np.ndarray, evaluator, d: int, lo: int, hi: int
    ) -> np.ndarray:
        """``F(tau)`` of direction ``d``'s position-major segments
        ``[lo, hi)`` — the one tau expression behind the table blocks and
        the kernels' per-position fallback."""
        fsr = self.pos_fsr[d][lo:hi]
        length = self.pos_len[d][lo:hi]
        if self.topology.is_3d:
            tau = sigma_t[fsr] * length[:, None]
        else:
            tau = (
                sigma_t[fsr][:, None, :]
                * length[:, None, None]
                * self.topology.inv_sin[None, :, None]
            )
        return evaluator(tau)

    def __repr__(self) -> str:
        kind = "3d" if self.topology.is_3d else "2d"
        return (
            f"SweepPlan({kind}, tracks={self.topology.num_tracks}, "
            f"segments={self.num_segments}, positions={self.max_positions})"
        )
