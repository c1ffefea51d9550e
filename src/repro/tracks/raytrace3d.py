"""3D ray tracing: on-the-fly axial segmentation (paper Secs. 2.1, 4.1).

A 3D track of a chain spans ``(s0, z0) -> (s1, z1)`` in the chain's
``(s, z)`` space. Its 3D segments are obtained by merging two breakpoint
families along the track parameter:

* radial crossings — the chain's concatenated 2D segment boundaries, and
* axial crossings — the z-planes of the axial mesh,

exactly the two nested loops of the paper's Figure 3(b). Both families are
precomputed sorted 1D arrays, so the merge is array work, not a
surface-by-surface walk, and it is track-parallel the way the GPU kernel
is: :func:`trace_3d_batch` streams the flattened chain tables and the
z-planes for every requested track at once (a handful of numpy passes).
Every storage strategy and the z-decomposed driver trace through it;
:func:`trace_3d_track` is the same merge for one track, kept as the
single-track API and as the reference the batched kernel is tested
against, bit for bit.

:class:`TrackTable3D` is what it reads — and the one representation of a
generator's 3D tracks: the columns :mod:`repro.tracks.stack3d` lays and
links, plus the chain tables flattened to CSR. The tracer uses the
end-point, chain and wrap columns; the sweep topology, the tracking
archive, the storage strategies and z-interface matching read the rest.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import TrackingError
from repro.geometry.extruded import ExtrudedGeometry
from repro.tracks.segments import SegmentData, csr_ranges, csr_searchsorted
from repro.tracks.track import Track3D


class ChainSegments:
    """Radial segmentation of one chain: FSR as a function of ``s``.

    ``bounds`` is the strictly increasing array of radial breakpoints from
    0 to the chain length; interval ``i`` (``bounds[i]..bounds[i+1]``) lies
    in radial FSR ``fsrs[i]``.
    """

    __slots__ = ("chain_index", "bounds", "fsrs", "length")

    def __init__(self, chain_index: int, bounds: np.ndarray, fsrs: np.ndarray) -> None:
        self.chain_index = chain_index
        self.bounds = np.ascontiguousarray(bounds, dtype=np.float64)
        self.fsrs = np.ascontiguousarray(fsrs, dtype=np.int32)
        if self.bounds.size != self.fsrs.size + 1:
            raise TrackingError("chain bounds/fsrs size mismatch")
        self.length = float(self.bounds[-1])

    @property
    def num_intervals(self) -> int:
        return int(self.fsrs.size)

    def fsr_at(self, s: float) -> int:
        """Radial FSR at arc length ``s`` (clamped to [0, length])."""
        idx = int(np.searchsorted(self.bounds, s, side="right")) - 1
        idx = min(max(idx, 0), self.fsrs.size - 1)
        return int(self.fsrs[idx])


def build_chain_tables(radial, segments2d: SegmentData) -> dict[str, np.ndarray]:
    """Radial tables for every chain in one vectorized pass.

    ``radial`` carries the chain CSR ``chain_ptr`` / ``el_uid`` /
    ``el_fwd`` (a :class:`~repro.tracks.table2d.TrackTable2D`). Each
    chain's 2D segments are concatenated in traversal order (reversed for
    backward elements) and adjacent same-FSR intervals merged; the gather
    indices, the running breakpoint sums and the run merge are computed
    over the concatenation of every chain at once. Breakpoints come from
    one global ``cumsum`` rebased per chain, which agrees with a per-chain
    sum to a few ulps of the total tracked length — far below the minimum
    segment length, and identical for every caller that uses the same
    segment data.

    Returns the flat ``bounds`` / ``fsrs`` / ``bound_ptr`` CSR that
    :class:`TrackTable3D` takes (see there for the layout).
    """
    offsets = segments2d.offsets
    el_uid, el_fwd = radial.el_uid, radial.el_fwd
    num_chains = radial.chain_ptr.size - 1
    el_chain = np.repeat(np.arange(num_chains, dtype=np.int64), np.diff(radial.chain_ptr))

    el_lo = offsets[el_uid].astype(np.int64)
    el_hi = offsets[el_uid + 1].astype(np.int64)
    el_n = el_hi - el_lo
    total = int(el_n.sum())
    if total == 0:  # every chain is the single bound 0.0
        return {
            "bounds": np.zeros(num_chains),
            "fsrs": np.empty(0, dtype=np.int32),
            "bound_ptr": np.arange(num_chains + 1, dtype=np.int64),
        }

    # Per-segment gather indices: forward elements walk their range up,
    # backward elements walk it down.
    base = np.where(el_fwd, el_lo, el_hi - 1)
    step = np.where(el_fwd, 1, -1)
    first = np.concatenate([[0], np.cumsum(el_n)[:-1]])
    rep = np.repeat(np.arange(el_uid.size, dtype=np.int64), el_n)
    within = np.arange(total, dtype=np.int64) - first[rep]
    idx = base[rep] + within * step[rep]
    fsrs_all = segments2d.fsr_ids[idx]
    seg_chain = el_chain[rep]

    ends_global = np.cumsum(segments2d.lengths[idx])
    chain_first = np.searchsorted(seg_chain, np.arange(num_chains, dtype=np.int64))
    rebase = np.where(
        chain_first > 0, ends_global[np.maximum(chain_first - 1, 0)], 0.0
    )
    ends = ends_global - rebase[seg_chain]

    # Merge same-FSR runs, never across a chain boundary.
    change = np.empty(total, dtype=bool)
    change[0] = True
    change[1:] = (fsrs_all[1:] != fsrs_all[:-1]) | (seg_chain[1:] != seg_chain[:-1])
    istart = np.flatnonzero(change)
    ilast = np.append(istart[1:] - 1, total - 1)
    i_chain = seg_chain[istart]
    num_intervals = istart.size

    # One flat bounds array holding [0.0, ends...] per chain.
    i_lo = np.searchsorted(i_chain, np.arange(num_chains + 1, dtype=np.int64), side="left")
    bound_ptr = i_lo + np.arange(num_chains + 1, dtype=np.int64)
    bounds = np.empty(num_intervals + num_chains)
    bounds[bound_ptr[:-1]] = 0.0
    bounds[np.arange(num_intervals, dtype=np.int64) + i_chain + 1] = ends[ilast]
    return {
        "bounds": bounds,
        "fsrs": fsrs_all[istart].astype(np.int32),
        "bound_ptr": bound_ptr,
    }


def chain_table_objects(
    bounds: np.ndarray, fsrs: np.ndarray, bound_ptr: np.ndarray
) -> dict[int, ChainSegments]:
    """Per-chain :class:`ChainSegments` over the chain-table CSR — a view
    for tests, the scalar tracer and CCM classification."""
    ptr = bound_ptr.tolist()
    return {
        c: ChainSegments(c, bounds[lo:hi], fsrs[lo - c : hi - c - 1])
        for c, (lo, hi) in enumerate(zip(ptr, ptr[1:]))
    }


def trace_3d_track(
    track: Track3D,
    chain_segs: ChainSegments,
    geometry3d: ExtrudedGeometry,
    wrap: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Segment one 3D track; returns ``(fsr3d_ids, lengths)``.

    ``wrap`` indicates a closed chain whose ``s`` coordinate is periodic
    (the track's ``s1`` may exceed the chain length).
    """
    length_s = chain_segs.length
    z_edges = geometry3d.axial_mesh.z_edges
    nz = geometry3d.num_layers
    s0, z0, s1, z1 = track.s0, track.z0, track.s1, track.z1
    ds = s1 - s0
    dz = z1 - z0
    total = math.hypot(ds, dz)
    if total <= 0.0:
        raise TrackingError(f"3D track {track.uid} has zero length")

    # Breakpoints as fractions t in (0, 1) of the track parameter.
    t_breaks: list[np.ndarray] = []
    if ds > 1e-14:
        if wrap:
            # Unroll the periodic radial table across the wrapped span.
            lo_wraps = math.floor(s0 / length_s)
            hi_wraps = math.floor(s1 / length_s)
            crossings = []
            for w in range(lo_wraps, hi_wraps + 1):
                shifted = chain_segs.bounds[1:-1] + w * length_s
                crossings.append(shifted)
                if w > lo_wraps:
                    crossings.append(np.array([w * length_s]))
            s_cross = np.concatenate(crossings) if crossings else np.empty(0)
        else:
            s_cross = chain_segs.bounds[1:-1]
        mask = (s_cross > s0 + 1e-12) & (s_cross < s1 - 1e-12)
        t_breaks.append((s_cross[mask] - s0) / ds)
    if abs(dz) > 1e-14:
        inner = z_edges[1:-1]
        zlo, zhi = (z0, z1) if dz > 0 else (z1, z0)
        mask = (inner > zlo + 1e-12) & (inner < zhi - 1e-12)
        t_breaks.append((inner[mask] - z0) / dz)

    if t_breaks:
        t = np.unique(np.concatenate([np.array([0.0, 1.0])] + t_breaks))
    else:
        t = np.array([0.0, 1.0])
    t.sort()
    mids = 0.5 * (t[:-1] + t[1:])
    lengths = np.diff(t) * total

    s_mid = s0 + mids * ds
    if wrap:
        s_mid = np.mod(s_mid, length_s)
    z_mid = z0 + mids * dz
    radial_idx = np.searchsorted(chain_segs.bounds, s_mid, side="right") - 1
    radial_idx = np.clip(radial_idx, 0, chain_segs.num_intervals - 1)
    radial_fsrs = chain_segs.fsrs[radial_idx].astype(np.int64)
    layers = np.searchsorted(z_edges, z_mid, side="right") - 1
    layers = np.clip(layers, 0, nz - 1)
    fsr3d = radial_fsrs * nz + layers
    keep = lengths > 1e-13
    return fsr3d[keep].astype(np.int64), lengths[keep]


# ---------------------------------------------------------------------------
# Batched kernel: every 3D track (or any subset) in O(1) numpy passes.
# ---------------------------------------------------------------------------

#: Tracks segmented per kernel pass: the kernel's temporaries (a couple of
#: hundred bytes per breakpoint) stay a few MB whatever the problem size.
BLOCK_TRACKS = 2048


#: Link and stack columns of a laydown (see :mod:`repro.tracks.stack3d`).
LAYDOWN_COLUMNS = (
    "link_uid", "link_fwd", "vacuum", "interface",
    "stack_ptr", "stack_chain", "stack_polar", "stack_theta", "stack_z_spacing",
    "stack_closed",
)


class TrackTable3D:
    """A generator's 3D laydown and chain tables, as flat columns.

    Per-track columns (``s0 z0 s1 z1 chain polar z_spacing wrap length``)
    are indexed by track uid; ``length`` is the scalar tracer's
    ``math.hypot(ds, dz)``, evaluated once here because ``np.hypot`` is
    not bitwise the same function. :data:`LAYDOWN_COLUMNS` are the
    ``(T, 2)`` link columns and the per-stack columns, stored as the
    laydown produced them; a hand-built table may leave them out (the
    tracer reads none of them). The per-chain radial tables are
    flattened to one CSR pair: chain ``c`` owns
    ``bounds[bound_ptr[c] : bound_ptr[c + 1]]`` and, having one interval
    fewer than it has bounds, ``fsrs[bound_ptr[c] - c : bound_ptr[c + 1] - c - 1]``.
    """

    __slots__ = (
        "s0", "z0", "s1", "z1", "chain", "polar", "z_spacing", "wrap", "length",
        *LAYDOWN_COLUMNS,
        "bounds", "fsrs", "bound_ptr", "chain_length", "z_edges",
    )

    def __init__(
        self,
        szsz: np.ndarray,
        chain: np.ndarray,
        polar: np.ndarray,
        z_spacing: np.ndarray,
        chain_closed: np.ndarray,
        bounds: np.ndarray,
        fsrs: np.ndarray,
        bound_ptr: np.ndarray,
        z_edges: np.ndarray,
        **laydown: np.ndarray,
    ) -> None:
        szsz = np.asarray(szsz, dtype=np.float64).reshape(-1, 4)
        self.s0, self.z0, self.s1, self.z1 = (
            np.ascontiguousarray(szsz[:, k]) for k in range(4)
        )
        self.chain = np.asarray(chain, dtype=np.int64)
        self.polar = np.asarray(polar, dtype=np.int64)
        self.z_spacing = np.asarray(z_spacing, dtype=np.float64)
        for name in LAYDOWN_COLUMNS:
            setattr(self, name, laydown.pop(name, None))
        if laydown:
            raise TypeError(f"unknown laydown columns {sorted(laydown)}")
        self.length = np.array(
            list(map(math.hypot, (self.s1 - self.s0).tolist(), (self.z1 - self.z0).tolist())),
            dtype=np.float64,
        )
        bad = np.flatnonzero(self.length <= 0.0)
        if bad.size:
            raise TrackingError(f"3D track {int(bad[0])} has zero length")
        self.wrap = np.asarray(chain_closed, dtype=bool)[self.chain]
        self.bounds = np.ascontiguousarray(bounds, dtype=np.float64)
        self.fsrs = np.ascontiguousarray(fsrs, dtype=np.int32)
        self.bound_ptr = np.asarray(bound_ptr, dtype=np.int64)
        if self.bounds.size != self.fsrs.size + self.bound_ptr.size - 1:
            raise TrackingError("chain bounds/fsrs size mismatch")
        # A chain's radial length is its last bound.
        self.chain_length = self.bounds[self.bound_ptr[1:] - 1]
        self.z_edges = np.asarray(z_edges, dtype=np.float64)

    @property
    def num_tracks(self) -> int:
        return int(self.s0.size)

    @property
    def szsz(self) -> np.ndarray:
        """The ``(T, 4)`` end-point array the constructor takes."""
        return np.column_stack((self.s0, self.z0, self.s1, self.z1))


def _breaks(
    rows: np.ndarray,
    values: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    origin: np.ndarray,
    delta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar tracer's mask and ``t = (x - origin) / delta`` over flat
    candidates; ``lo``/``hi``/``origin``/``delta`` are per-track columns."""
    keep = (values > lo[rows]) & (values < hi[rows])
    rows = rows[keep]
    return rows, (values[keep] - origin[rows]) / delta[rows]


def _trace_block(
    table: TrackTable3D, uids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment tracks ``uids``; returns per-track counts, FSR ids, lengths.

    Five passes, each the array form of one step of :func:`trace_3d_track`
    with its elementwise expressions kept verbatim:

    1. candidate windows — per (track, wrap) a slice of the chain's
       interior bounds, per track a slice of the interior z-planes. The
       windows are conservative supersets; they only bound the work;
    2. exact masks and ``t`` — the scalar comparisons decide membership;
    3. one ``lexsort`` on (track, t) with exact-equal dedupe, which is
       ``np.unique`` per track;
    4. midpoint FSR / layer lookup;
    5. the minimum-length filter and per-track counts.
    """
    n = uids.size
    s0, z0, s1, z1 = table.s0[uids], table.z0[uids], table.s1[uids], table.z1[uids]
    ds = s1 - s0
    dz = z1 - z0
    chain = table.chain[uids]
    wrap = table.wrap[uids]
    length_s = table.chain_length[chain]
    b_lo = table.bound_ptr[chain]
    b_hi = table.bound_ptr[chain + 1]

    # 1a. Radial windows. An open chain is the single wrap w = 0, whose
    # shift w * L = 0.0 leaves the (positive) interior bounds bit-identical.
    radial = ds > 1e-14
    first_wrap = np.zeros(n, dtype=np.int64)
    last_wrap = np.zeros(n, dtype=np.int64)
    unroll = radial & wrap
    first_wrap[unroll] = np.floor(s0[unroll] / length_s[unroll]).astype(np.int64)
    last_wrap[unroll] = np.floor(s1[unroll] / length_s[unroll]).astype(np.int64)
    w, pair_track = csr_ranges(
        first_wrap, np.where(radial, last_wrap - first_wrap + 1, 0)
    )
    shift = w * length_s[pair_track]
    # Superset of the exact mask below: the slack dwarfs any rounding in
    # b + shift, and only ever admits extra candidates for the mask to drop.
    slack = 1e-6 * (1.0 + np.abs(shift) + length_s[pair_track])
    interior_lo = b_lo[pair_track] + 1
    interior_hi = b_hi[pair_track] - 1
    win_lo = csr_searchsorted(
        table.bounds, interior_lo, interior_hi, s0[pair_track] - shift - slack
    )
    win_hi = csr_searchsorted(
        table.bounds, interior_lo, interior_hi, s1[pair_track] - shift + slack
    )
    pos, cand_pair = csr_ranges(win_lo, win_hi - win_lo)
    seam = np.flatnonzero(w > first_wrap[pair_track])
    radial_rows = np.concatenate([pair_track[cand_pair], pair_track[seam]])
    radial_values = np.concatenate([table.bounds[pos] + shift[cand_pair], shift[seam]])

    # 1b. Axial windows over the interior z-planes.
    inner = table.z_edges[1:-1]
    axial = np.abs(dz) > 1e-14
    up = dz > 0
    z_lo = np.where(up, z0, z1) + 1e-12
    z_hi = np.where(up, z1, z0) - 1e-12
    k_lo = np.searchsorted(inner, z_lo, side="right")
    k_hi = np.searchsorted(inner, z_hi, side="left")
    k, axial_rows = csr_ranges(k_lo, np.where(axial, np.maximum(k_hi - k_lo, 0), 0))

    # 2. Exact masks and break fractions, both families.
    r_rows, r_t = _breaks(radial_rows, radial_values, s0 + 1e-12, s1 - 1e-12, s0, ds)
    a_rows, a_t = _breaks(axial_rows, inner[k], z_lo, z_hi, z0, dz)

    # 3. Merge with the end points, sort per track, drop exact duplicates.
    every = np.arange(n, dtype=np.int64)
    rows = np.concatenate([every, every, r_rows, a_rows])
    t = np.concatenate([np.zeros(n), np.ones(n), r_t, a_t])
    order = np.lexsort((t, rows))
    rows = rows[order]
    t = t[order]
    distinct = np.ones(rows.size, dtype=bool)
    distinct[1:] = (rows[1:] != rows[:-1]) | (t[1:] != t[:-1])
    rows = rows[distinct]
    t = t[distinct]
    left = np.flatnonzero(rows[1:] == rows[:-1])
    rows = rows[left]
    t_lo = t[left]
    t_hi = t[left + 1]

    # 4. Midpoint lookup.
    mids = 0.5 * (t_lo + t_hi)
    lengths = (t_hi - t_lo) * table.length[uids][rows]
    s_mid = s0[rows] + mids * ds[rows]
    wrapped = np.flatnonzero(wrap[rows])
    s_mid[wrapped] = np.mod(s_mid[wrapped], length_s[rows[wrapped]])
    z_mid = z0[rows] + mids * dz[rows]
    seg_lo = b_lo[rows]
    seg_hi = b_hi[rows]
    radial_idx = csr_searchsorted(table.bounds, seg_lo, seg_hi, s_mid) - seg_lo - 1
    radial_idx = np.clip(radial_idx, 0, seg_hi - seg_lo - 2)
    radial_fsrs = table.fsrs[seg_lo - chain[rows] + radial_idx].astype(np.int64)
    num_layers = table.z_edges.size - 1
    layers = np.searchsorted(table.z_edges, z_mid, side="right") - 1
    layers = np.clip(layers, 0, num_layers - 1)
    fsr3d = radial_fsrs * num_layers + layers

    # 5. Minimum-length filter, CSR counts.
    keep = lengths > 1e-13
    rows = rows[keep]
    return np.bincount(rows, minlength=n), fsr3d[keep], lengths[keep]


def trace_3d_batch(table: TrackTable3D, uids: np.ndarray | None = None) -> SegmentData:
    """Segment 3D tracks ``uids`` (default: all) in one flat merge.

    Row ``i`` of the result holds track ``uids[i]``; the arrays are bitwise
    what :func:`trace_3d_track` returns for each track, concatenated.
    """
    if uids is None:
        uids = np.arange(table.num_tracks, dtype=np.int64)
    else:
        uids = np.asarray(uids, dtype=np.int64)
    blocks = [
        _trace_block(table, uids[i : i + BLOCK_TRACKS])
        for i in range(0, uids.size, BLOCK_TRACKS)
    ]
    offsets = np.zeros(uids.size + 1, dtype=np.int64)
    if not blocks:
        return SegmentData(np.empty(0), np.empty(0, dtype=np.int32), offsets)
    np.cumsum(np.concatenate([b[0] for b in blocks]), out=offsets[1:])
    return SegmentData(
        np.concatenate([b[2] for b in blocks]),
        np.concatenate([b[1] for b in blocks]),
        offsets,
    )
