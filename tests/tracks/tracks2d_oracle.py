"""The parent's per-object radial laydown code, kept verbatim as test oracles.

Before the radial laydown became :class:`~repro.tracks.table2d.TrackTable2D`
columns, ``repro.tracks.chains`` kept a dict-based walker beside the
vectorised linker (``_link_tracks_scalar`` over ``_PointMatcher``),
``build_chains`` walked ``Track2D.link_fwd`` / ``link_bwd`` attributes,
``chain_segments`` cut one chain's table at a time,
``TrackTopology.from_tracks`` and ``match_interface_tracks`` looped over
track objects and the generator filled per-segment weights track by track.
Those bodies live on here, unchanged, so the column code can be compared
with them attribute for attribute
(``tests/properties/test_track_table_properties.py``). The interface
walk still builds one :class:`Route` per route, a test-local row type
that compares equal to a row of the shipped ``(N, 6)`` route table.

:func:`unlinked_table` / :func:`radial_table` build tables for tests from
the shipped column functions; :func:`table_of` goes the other way —
columns gathered out of objects — for tests that build a ``Track2D`` by
hand.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.errors import DecompositionError, TrackingError
from repro.geometry.geometry import SIDES, BoundaryCondition, Geometry
from repro.solver.backends.plan import TrackTopology
from repro.tracks.chains import Chain, build_chains, link_tracks
from repro.tracks.laydown import lay_tracks
from repro.tracks.raytrace3d import ChainSegments
from repro.tracks.segments import SegmentData
from repro.tracks.table2d import TrackTable2D
from repro.tracks.track import Track2D, TrackLink

class Route(NamedTuple):
    """One interface flux route between (domain, track, direction) slots,
    as the objects the route table replaced: a row of the table."""

    src_domain: int
    src_track: int
    src_dir: int
    dst_domain: int
    dst_track: int
    dst_dir: int


def route_rows(routes: np.ndarray) -> list[Route]:
    """The rows of a shipped ``(N, 6)`` route table, as :class:`Route` s."""
    return [Route(*row) for row in routes.tolist()]


#: Quantisation used when matching boundary points, relative to domain size.
_MATCH_REL_TOL = 1e-9


def unlinked_table(laydown: dict[str, np.ndarray]) -> TrackTable2D:
    """A table over laydown columns alone: no end linked or flagged, no
    chains — what a freshly laid, not yet linked ``list[Track2D]`` was."""
    ends = (laydown["length"].size, 2)
    return TrackTable2D(
        **laydown,
        link_uid=np.full(ends, -1, dtype=np.int64),
        link_fwd=np.zeros(ends, dtype=bool),
        vacuum=np.zeros(ends, dtype=bool),
        interface=np.zeros(ends, dtype=bool),
        chain_ptr=np.zeros(1, dtype=np.int64),
        el_uid=np.empty(0, dtype=np.int64),
        el_fwd=np.empty(0, dtype=bool),
        el_offset=np.empty(0),
        chain_length=np.empty(0),
        chain_closed=np.empty(0, dtype=bool),
        chain_azim=np.empty(0, dtype=np.int64),
        chain_iface=np.empty((0, 2), dtype=bool),
    )


def radial_table(geometry, quadrature) -> TrackTable2D:
    """The shipped laydown, links and chains of ``geometry`` as one table
    (what ``TrackGenerator.generate`` builds between its phase timers)."""
    laydown = lay_tracks(geometry, quadrature)
    links = link_tracks(laydown, geometry)
    return TrackTable2D(**laydown, **links, **build_chains(laydown, links))


def table_of(tracks: list[Track2D]) -> TrackTable2D:
    """An unlinked table holding hand-built ``tracks`` (any side name left
    empty reads as ``xmin``)."""
    return unlinked_table({
        "xyxy": np.array([(t.x0, t.y0, t.x1, t.y1) for t in tracks]).reshape(-1, 4),
        "phi": np.array([t.phi for t in tracks]),
        "direction": np.array([t.direction for t in tracks]).reshape(-1, 2),
        "azim": np.array([t.azim for t in tracks], dtype=np.int64),
        "index_in_azim": np.array([t.index_in_azim for t in tracks], dtype=np.int64),
        "start_side": np.array([SIDES.index(t.start_side or "xmin") for t in tracks]),
        "end_side": np.array([SIDES.index(t.end_side or "xmin") for t in tracks]),
        "length": np.array([t.length for t in tracks]),
    })


class _PointMatcher:
    """Matches 4D keys (x, y, ux, uy) with a tolerance, via neighbour bins."""

    def __init__(self, scale: float) -> None:
        self._quantum = max(scale * _MATCH_REL_TOL, 1e-13)
        self._bins: dict[tuple[int, int, int, int], list[tuple[float, float, float, float, object]]] = {}

    def _key(self, x: float, y: float, ux: float, uy: float) -> tuple[int, int, int, int]:
        q = self._quantum
        return (round(x / q), round(y / q), round(ux / 1e-9), round(uy / 1e-9))

    def add(self, x: float, y: float, ux: float, uy: float, payload: object) -> None:
        self._bins.setdefault(self._key(x, y, ux, uy), []).append((x, y, ux, uy, payload))

    def find(self, x: float, y: float, ux: float, uy: float, tol: float) -> object | None:
        kx, ky, kux, kuy = self._key(x, y, ux, uy)
        best: object | None = None
        best_d = tol
        for bx in (kx - 1, kx, kx + 1):
            for by in (ky - 1, ky, ky + 1):
                for bux in (kux - 1, kux, kux + 1):
                    for buy in (kuy - 1, kuy, kuy + 1):
                        for (px, py, pux, puy, payload) in self._bins.get((bx, by, bux, buy), ()):
                            if abs(pux - ux) > 1e-7 or abs(puy - uy) > 1e-7:
                                continue
                            d = math.hypot(px - x, py - y)
                            if d <= best_d:
                                best_d = d
                                best = payload
        return best


def _mirror(ux: float, uy: float, side: str) -> tuple[float, float]:
    if side in ("xmin", "xmax"):
        return -ux, uy
    return ux, -uy


def link_tracks_scalar(tracks: list[Track2D], geometry: Geometry) -> None:
    """The parent's dict-based walker: fills the link / vacuum / interface
    attributes of every track in place."""
    scale = max(geometry.width, geometry.height)
    tol = scale * 1e-6
    entries = _PointMatcher(scale)
    for t in tracks:
        ux, uy = t.direction
        # Entering forward at the start point.
        entries.add(t.x0, t.y0, ux, uy, TrackLink(t.uid, True))
        # Entering backward at the end point.
        entries.add(t.x1, t.y1, -ux, -uy, TrackLink(t.uid, False))

    width = geometry.width
    height = geometry.height

    def resolve(track: Track2D, x: float, y: float, ux: float, uy: float, side: str) -> tuple[TrackLink | None, bool, bool]:
        """Return (link, vacuum, interface) for flux exiting at (x, y)."""
        bc = geometry.boundary[side]
        if bc is BoundaryCondition.VACUUM:
            return None, True, False
        if bc is BoundaryCondition.INTERFACE:
            return None, False, True
        if bc is BoundaryCondition.REFLECTIVE:
            rx, ry = _mirror(ux, uy, side)
            link = entries.find(x, y, rx, ry, tol)
        elif bc is BoundaryCondition.PERIODIC:
            px, py = x, y
            if side == "xmin":
                px = x + width
            elif side == "xmax":
                px = x - width
            elif side == "ymin":
                py = y + height
            else:
                py = y - height
            link = entries.find(px, py, ux, uy, tol)
        else:  # pragma: no cover - exhaustive over enum
            raise TrackingError(f"unhandled boundary condition {bc}")
        if link is None:
            raise TrackingError(
                f"track {track.uid}: no {bc.value} partner at ({x:.8g}, {y:.8g}) "
                f"side {side} direction ({ux:.6g}, {uy:.6g})"
            )
        return link, False, False  # type: ignore[return-value]

    for t in tracks:
        ux, uy = t.direction
        t.link_fwd, t.vacuum_end, t.interface_end = resolve(t, t.x1, t.y1, ux, uy, t.end_side)
        t.link_bwd, t.vacuum_start, t.interface_start = resolve(t, t.x0, t.y0, -ux, -uy, t.start_side)


def walk_chains(tracks: list[Track2D]) -> list[Chain]:
    """The parent's ``build_chains``: group linked track objects into chains.

    Every (track, direction) traversal belongs to exactly one chain; since
    traversing a chain backward visits the same tracks, each *track*
    appears in exactly one returned chain. Chains are found by walking
    backward links to a terminal end (or cycle closure) and then forward.
    """
    visited = [False] * len(tracks)
    chains: list[Chain] = []

    def step_forward(uid: int, forward: bool) -> tuple[int, bool] | None:
        track = tracks[uid]
        link = track.link_fwd if forward else track.link_bwd
        if link is None:
            return None
        return link.track, link.forward

    def step_backward(uid: int, forward: bool) -> tuple[int, bool] | None:
        # The traversal (uid, forward) was entered at its start point; who
        # feeds it? Reverse the traversal and step forward, then reverse.
        prev = step_forward(uid, not forward)
        if prev is None:
            return None
        p_uid, p_fwd = prev
        return p_uid, not p_fwd

    for seed in range(len(tracks)):
        if visited[seed]:
            continue
        # Walk backward to find the chain head (or detect a cycle).
        head = (seed, True)
        seen = {head}
        closed = False
        while True:
            prev = step_backward(*head)
            if prev is None:
                break
            if prev in seen or prev == (seed, False):
                closed = True
                break
            head = prev
            seen.add(head)
        # Walk forward from the head, collecting elements.
        elements: list[tuple[int, bool]] = []
        offsets: list[float] = []
        length = 0.0
        cursor: tuple[int, bool] | None = head
        while cursor is not None:
            uid, fwd = cursor
            if visited[uid]:
                break
            visited[uid] = True
            elements.append((uid, fwd))
            offsets.append(length)
            length += tracks[uid].length
            cursor = step_forward(uid, fwd)
            if closed and cursor == head:
                break
        if not elements:
            continue
        first_uid, first_fwd = elements[0]
        last_uid, last_fwd = elements[-1]
        first_track = tracks[first_uid]
        last_track = tracks[last_uid]
        azim_indices = {tracks[uid].azim for uid, _ in elements}
        chains.append(
            Chain(
                index=len(chains),
                elements=elements,
                closed=closed,
                offsets=offsets,
                length=length,
                azim=min(azim_indices),
                starts_at_interface=(
                    first_track.interface_start if first_fwd else first_track.interface_end
                ),
                ends_at_interface=(
                    last_track.interface_end if last_fwd else last_track.interface_start
                ),
            )
        )
    return chains


def chain_segments(
    chain: Chain, tracks2d: list[Track2D], segments2d: SegmentData
) -> ChainSegments:
    """Concatenate a chain's 2D segments into a single ``s``-axis table.

    Fully vectorised: gathers each element's segment range (reversed for
    backward traversals), accumulates breakpoints with a running ``cumsum``
    (sequential, so identical to the scalar sum order), and merges adjacent
    same-FSR intervals with a change mask.
    """
    offsets = segments2d.offsets
    ranges = [
        np.arange(offsets[uid], offsets[uid + 1])
        if forward
        else np.arange(offsets[uid + 1] - 1, offsets[uid] - 1, -1)
        for uid, forward in chain.elements
    ]
    idx = np.concatenate(ranges) if ranges else np.empty(0, dtype=np.int64)
    fsrs = segments2d.fsr_ids[idx]
    ends = np.cumsum(segments2d.lengths[idx])
    if fsrs.size == 0:
        return ChainSegments(chain.index, np.array([0.0]), np.empty(0, dtype=np.int32))
    # A run of equal FSRs collapses to one interval ending at its last end.
    change = np.empty(fsrs.size, dtype=bool)
    change[0] = True
    np.not_equal(fsrs[1:], fsrs[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    last = np.append(starts[1:] - 1, fsrs.size - 1)
    bounds = np.concatenate([[0.0], ends[last]])
    return ChainSegments(chain.index, bounds, fsrs[starts])


def topology_from_tracks(
    tracks,
    weights: np.ndarray,
    inv_sin: np.ndarray | None,
) -> TrackTopology:
    """The parent's ``TrackTopology.from_tracks``: the link tables from a
    list of linked track objects."""
    num_tracks = len(tracks)
    uid = np.fromiter((t.uid for t in tracks), dtype=np.int64, count=num_tracks)
    # One flat column per field, ordered (track, direction), then four
    # whole-array writes instead of a numpy item store per track end.
    links = [link for t in tracks for link in (t.link_fwd, t.link_bwd)]
    ends = 2 * num_tracks
    linked = np.fromiter((link is not None for link in links), dtype=bool, count=ends)
    target = np.fromiter(
        (0 if link is None else link.track for link in links),
        dtype=np.int64, count=ends,
    )
    backward = np.fromiter(
        (0 if link is None or link.forward else 1 for link in links),
        dtype=np.int64, count=ends,
    )
    iface = np.fromiter(
        (flag for t in tracks for flag in (t.interface_end, t.interface_start)),
        dtype=bool, count=ends,
    )
    next_track = np.zeros((num_tracks, 2), dtype=np.int64)
    next_dir = np.zeros((num_tracks, 2), dtype=np.int64)
    terminal = np.zeros((num_tracks, 2), dtype=bool)
    interface = np.zeros((num_tracks, 2), dtype=bool)
    next_track[uid] = target.reshape(num_tracks, 2)
    next_dir[uid] = backward.reshape(num_tracks, 2)
    terminal[uid] = ~linked.reshape(num_tracks, 2)
    interface[uid] = (iface & ~linked).reshape(num_tracks, 2)
    return TrackTopology(weights, next_track, next_dir, terminal, interface, inv_sin)


def tracked_volumes(trackgen) -> np.ndarray:
    """The parent's ``TrackGenerator._tracked_volumes``: per-segment weights
    filled track by track."""
    segments = trackgen.segments
    weights = np.empty(segments.num_segments)
    for t in trackgen.tracks:
        lo, hi = segments.offsets[t.uid], segments.offsets[t.uid + 1]
        weights[lo:hi] = (
            trackgen.azimuthal.weights[t.azim] * trackgen.azimuthal.spacing[t.azim]
        )
    return segments.fsr_path_lengths(trackgen.geometry.num_fsrs, weights)


def segment_angles(trackgen) -> np.ndarray:
    """The parent's ``TrackGenerator.segment_angles`` loop."""
    segments = trackgen.segments
    azim = np.empty(segments.num_segments, dtype=np.int32)
    for t in trackgen.tracks:
        lo, hi = segments.offsets[t.uid], segments.offsets[t.uid + 1]
        azim[lo:hi] = t.azim
    return azim


def match_interface_tracks(trackgens) -> list[Route]:
    """Build the routing table over all domains' interface track ends.

    Every interface exit must find exactly one entry in a neighbouring
    domain; a missing partner means the decomposition broke modular ray
    tracing and raises :class:`~repro.errors.DecompositionError`.
    """
    if not trackgens:
        raise DecompositionError("no domains to match")
    scale = max(max(tg.geometry.width, tg.geometry.height) for tg in trackgens)
    # Global entry registry: interface entry points of all domains.
    matcher = _PointMatcher(scale * max(len(trackgens), 1))
    for dom, tg in enumerate(trackgens):
        for t in tg.tracks:
            ux, uy = t.direction
            if t.interface_start:
                # Forward traversal enters at the start point.
                matcher.add(t.x0, t.y0, ux, uy, (dom, t.uid, 0))
            if t.interface_end:
                # Backward traversal enters at the end point.
                matcher.add(t.x1, t.y1, -ux, -uy, (dom, t.uid, 1))

    tol = scale * 1e-6
    routes: list[Route] = []
    for dom, tg in enumerate(trackgens):
        for t in tg.tracks:
            ux, uy = t.direction
            if t.interface_end:
                # Forward exit at the end point, continuing along (ux, uy).
                hit = matcher.find(t.x1, t.y1, ux, uy, tol)
                if hit is None:
                    raise DecompositionError(
                        f"domain {dom} track {t.uid}: no interface partner at "
                        f"({t.x1:.8g}, {t.y1:.8g})"
                    )
                dst_dom, dst_track, dst_dir = hit  # type: ignore[misc]
                routes.append(Route(dom, t.uid, 0, dst_dom, dst_track, dst_dir))
            if t.interface_start:
                hit = matcher.find(t.x0, t.y0, -ux, -uy, tol)
                if hit is None:
                    raise DecompositionError(
                        f"domain {dom} track {t.uid}: no interface partner at "
                        f"({t.x0:.8g}, {t.y0:.8g})"
                    )
                dst_dom, dst_track, dst_dir = hit  # type: ignore[misc]
                routes.append(Route(dom, t.uid, 1, dst_dom, dst_track, dst_dir))
    # Sanity: routes must never point a slot at itself.
    for r in routes:
        if (r.src_domain, r.src_track, r.src_dir) == (r.dst_domain, r.dst_track, r.dst_dir):
            raise DecompositionError(f"self-route detected: {r}")
    return routes
