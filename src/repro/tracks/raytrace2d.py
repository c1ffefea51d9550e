"""2D ray tracing: cutting tracks into FSR-homogeneous segments.

Each track is walked surface to surface; the FSR of every step is sampled
at the step midpoint (robust to points sitting exactly on surfaces), and
consecutive steps in the same FSR are merged. The invariant that segment
lengths sum to the track's chord length is enforced here and property-
tested in ``tests/tracks/test_raytrace2d.py``.

Two tracers implement identical semantics (see ``repro.tracks.tracers``):

* :func:`trace_track` / the ``reference`` tracer — the original scalar
  walker, one geometry query per crossing;
* :func:`trace_all_wavefront` — the ``batch`` tracer: every unfinished
  track advances one crossing per iteration through the flat geometry
  view's batched kernels, so the Python interpreter runs once per
  *wavefront* instead of once per crossing.

When a step lands closer than :data:`~repro.constants.MIN_SEGMENT_LENGTH`
to the next surface (a "sliver", typically a cluster of tangent surfaces)
the tracer advances a forced :data:`_SLIVER_STEP` instead. The forced jump
samples the FSR at the quarter points of the jump and splits it in half
when they disagree, so a legitimately thin FSR crossed inside the jump is
still recorded rather than overshot.
"""

from __future__ import annotations

import numpy as np

from repro.constants import MIN_SEGMENT_LENGTH
from repro.errors import TrackingError
from repro.geometry.geometry import Geometry
from repro.tracks.segments import SegmentData
from repro.tracks.track import Track2D

#: Inward nudge applied to boundary start points before sampling.
_EDGE_NUDGE = 1e-11

#: Forced advance past a surface cluster when the next crossing is closer
#: than MIN_SEGMENT_LENGTH.
_SLIVER_STEP = MIN_SEGMENT_LENGTH * 10.0

_MAX_STEPS = 1_000_000


def _tree_kernels(geometry):
    """Scalar point/ray kernels, preferring the original tree walk so the
    reference tracer behaves (and times) exactly like the seed walker."""
    find = getattr(geometry, "_find_fsr_tree", None) or geometry.find_fsr
    dist = (
        getattr(geometry, "_distance_to_boundary_tree", None)
        or geometry.distance_to_boundary
    )
    return find, dist


def trace_track(geometry: Geometry, track: Track2D) -> list[tuple[int, float]]:
    """Segment one track; returns ``[(fsr_id, length), ...]`` in order."""
    total = track.length
    if total <= 0.0:
        raise TrackingError(f"track {track.uid} has zero length")
    ux, uy = track.direction
    find_fsr, distance_to_boundary = _tree_kernels(geometry)
    segments: list[tuple[int, float]] = []

    def emit(fsr: int, length: float) -> None:
        if segments and segments[-1][0] == fsr:
            segments[-1] = (fsr, segments[-1][1] + length)
        else:
            segments.append((fsr, length))

    s = 0.0
    guard = 0
    while total - s > MIN_SEGMENT_LENGTH:
        guard += 1
        if guard > _MAX_STEPS:
            raise TrackingError(f"track {track.uid}: ray tracing did not terminate")
        # Sample just past the last crossing to stay off surfaces.
        probe = s + _EDGE_NUDGE
        x = track.x0 + probe * ux
        y = track.y0 + probe * uy
        step = distance_to_boundary(x, y, ux, uy)
        step = min(step, total - s)
        if step <= MIN_SEGMENT_LENGTH:
            # Sliver: advance past the surface cluster, but probe both
            # halves of the jump — it may overshoot a genuinely thin FSR.
            step = _SLIVER_STEP
            step = min(step, total - s)
            q1 = s + 0.25 * step
            f1 = find_fsr(track.x0 + q1 * ux, track.y0 + q1 * uy)
            q3 = s + 0.75 * step
            f2 = find_fsr(track.x0 + q3 * ux, track.y0 + q3 * uy)
            if f1 != f2:
                half = 0.5 * step
                emit(f1, half)
                emit(f2, half)
            else:
                emit(f1, step)
            s += step
            continue
        mid = s + 0.5 * step
        mx = track.x0 + mid * ux
        my = track.y0 + mid * uy
        emit(find_fsr(mx, my), step)
        s += step
    if not segments:
        raise TrackingError(f"track {track.uid}: produced no segments")
    # Absorb the residual round-off into the last segment so lengths sum
    # exactly to the chord length.
    fsr, last = segments[-1]
    segments[-1] = (fsr, last + (total - s))
    return segments


def trace_all_reference(geometry: Geometry, table) -> SegmentData:
    """The ``reference`` tracer: scalar :func:`trace_track` per track of
    the table's object view."""
    return SegmentData.from_lists([trace_track(geometry, t) for t in table.tracks])


def trace_all_wavefront(geometry: Geometry, table) -> SegmentData:
    """The ``batch`` tracer: advance all unfinished tracks one crossing per
    iteration over the batched geometry kernels.

    Reads the ``xyxy``, ``direction`` and ``length`` columns of ``table``
    (a :class:`~repro.tracks.table2d.TrackTable2D`; uids are row numbers).

    Reproduces :func:`trace_track` step for step — same probes, same
    sliver handling, same merge arithmetic — so its output is bit-identical
    to the reference tracer (property-tested). Per-track state lives in
    arrays; each iteration issues two batched geometry queries for the
    whole wavefront instead of two scalar queries per track crossing.
    """
    num = table.num_tracks
    if num == 0:
        return SegmentData(
            np.empty(0), np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64)
        )
    x0, y0 = table.xyxy[:, 0], table.xyxy[:, 1]
    ux, uy = table.direction.T
    total = table.length
    if (total <= 0.0).any():
        raise TrackingError(f"track {int(np.argmax(total <= 0.0))} has zero length")

    s = np.zeros(num)
    # The open (not yet closed) segment of each track, merged in place.
    cur_fsr = np.full(num, -1, dtype=np.int64)
    cur_len = np.zeros(num)
    out_track: list[np.ndarray] = []
    out_fsr: list[np.ndarray] = []
    out_len: list[np.ndarray] = []

    def push(idx: np.ndarray, fsr: np.ndarray, length: np.ndarray) -> None:
        """Merge one step per track into its open segment (same-FSR steps
        extend it; a new FSR closes it and opens the next)."""
        same = cur_fsr[idx] == fsr
        merge = idx[same]
        cur_len[merge] += length[same]
        fresh = idx[~same]
        closing = fresh[cur_fsr[fresh] >= 0]
        if closing.size:
            out_track.append(closing)
            out_fsr.append(cur_fsr[closing].copy())
            out_len.append(cur_len[closing].copy())
        cur_fsr[fresh] = fsr[~same]
        cur_len[fresh] = length[~same]

    active = np.flatnonzero(total - s > MIN_SEGMENT_LENGTH)
    iterations = 0
    while active.size:
        iterations += 1
        if iterations > _MAX_STEPS:
            raise TrackingError(f"track {int(active[0])}: ray tracing did not terminate")
        sa = s[active]
        aux, auy = ux[active], uy[active]
        probe = sa + _EDGE_NUDGE
        step = geometry.distance_to_boundary_batch(
            x0[active] + probe * aux, y0[active] + probe * auy, aux, auy
        )
        np.minimum(step, total[active] - sa, out=step)
        sliver = step <= MIN_SEGMENT_LENGTH
        fsr = np.empty(active.size, dtype=np.int64)
        length = np.empty(active.size)
        normal = ~sliver
        if normal.any():
            mid = sa[normal] + 0.5 * step[normal]
            fsr[normal] = geometry.find_fsr_batch(
                x0[active][normal] + mid * aux[normal],
                y0[active][normal] + mid * auy[normal],
            )
            length[normal] = step[normal]
        split_pos = np.empty(0, dtype=np.int64)
        f2 = half = None
        if sliver.any():
            forced = np.minimum(_SLIVER_STEP, (total[active] - sa)[sliver])
            step[sliver] = forced
            q1 = sa[sliver] + 0.25 * forced
            f1 = geometry.find_fsr_batch(
                x0[active][sliver] + q1 * aux[sliver],
                y0[active][sliver] + q1 * auy[sliver],
            )
            q3 = sa[sliver] + 0.75 * forced
            f2 = geometry.find_fsr_batch(
                x0[active][sliver] + q3 * aux[sliver],
                y0[active][sliver] + q3 * auy[sliver],
            )
            split = f1 != f2
            fsr[sliver] = f1
            length[sliver] = np.where(split, 0.5 * forced, forced)
            split_pos = np.flatnonzero(sliver)[split]
            f2 = f2[split]
            half = (0.5 * forced)[split]
        push(active, fsr, length)
        if split_pos.size:
            push(active[split_pos], f2, half)
        s[active] = sa + step
        active = active[total[active] - s[active] > MIN_SEGMENT_LENGTH]

    if (cur_fsr < 0).any():
        raise TrackingError(f"track {int(np.argmax(cur_fsr < 0))}: produced no segments")
    cur_len += total - s
    out_track.append(np.arange(num, dtype=np.int64))
    out_fsr.append(cur_fsr)
    out_len.append(cur_len)

    track_of = np.concatenate(out_track)
    order = np.argsort(track_of, kind="stable")
    counts = np.bincount(track_of, minlength=num)
    offsets = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return SegmentData(
        np.concatenate(out_len)[order], np.concatenate(out_fsr)[order], offsets
    )


def trace_all(geometry: Geometry, table, tracer: str | None = None) -> SegmentData:
    """Segment every track of ``table`` into a :class:`SegmentData` container.

    ``tracer`` selects the implementation through the registry in
    :mod:`repro.tracks.tracers` (argument > ``REPRO_TRACER`` env var >
    default); ``None`` follows that selection policy.
    """
    from repro.tracks.tracers import get_tracer, resolve_tracer

    return get_tracer(resolve_tracer(tracer))(geometry, table)
