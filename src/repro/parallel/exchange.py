"""Interface-track matching between neighbouring subdomains.

Modular ray tracing lays identical track patterns in every (congruent)
subdomain, so a track leaving one subdomain through an interface continues
exactly as a track of the neighbour. This module computes that routing
table once; the driver then moves boundary angular flux along it every
sweep (paper Sec. 3.1 stage 4: "the tail fluxes of tracks are transmitted
through the adjacent domains of MPI").

A route table is one ``(N, 6)`` ``intp`` array, one row per route, its
columns named by :data:`ROUTE_COLUMNS`: the source ``(domain, track,
direction)`` slot and the destination slot its flux enters. ``direction``
is 0 for forward, 1 for backward, matching the sweep's psi array layout.
Both decomposed drivers build one (:func:`match_interface_tracks`, and
:meth:`~repro.parallel.driver3d.ZDecomposedSolver._match_interfaces` for
z-slabs); the execution engines read its columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DecompositionError
from repro.tracks.chains import match_entries
from repro.tracks.generator import TrackGenerator

#: The columns of a route table, in order.
ROUTE_COLUMNS = ("src_domain", "src_track", "src_dir", "dst_domain", "dst_track", "dst_dir")


def _interface_slots(
    trackgens: list[TrackGenerator], entering: bool
) -> tuple[np.ndarray, np.ndarray]:
    """``(domain, track, traversal)`` and ``(x, y, ux, uy)`` per interface
    slot, domain by domain in ``(track, traversal)`` order.

    Traversal ``k`` (0 forward, 1 backward) moves along ``+/-u`` and leaves
    the track through end ``k`` of the table's ``(T, 2)`` columns; it enters
    through the other end. A slot is listed when the end it leaves through
    (``entering``: enters through) lies on an interface, with that point.
    """
    slots, rays = [], []
    for dom, tg in enumerate(trackgens):
        table = tg.track_table_2d()
        x0, y0, x1, y1 = table.xyxy.T
        ux, uy = table.direction.T
        direction = np.stack([[ux, uy], [-ux, -uy]])  # (traversal, xy, track)
        point = np.stack([[x1, y1], [x0, y0]])
        on = table.interface
        if entering:
            point, on = point[::-1], on[:, ::-1]
        track, k = np.nonzero(on)
        slots.append(np.column_stack([np.full(track.size, dom), track, k]))
        rays.append(np.column_stack([point[k, :, track], direction[k, :, track]]))
    return np.concatenate(slots), np.concatenate(rays)


def match_interface_tracks(trackgens: list[TrackGenerator]) -> np.ndarray:
    """The route table over all domains' interface track ends.

    Every interface exit must find exactly one entry in a neighbouring
    domain (one :func:`~repro.tracks.chains.match_entries` join over every
    domain's track table); a missing partner means the decomposition broke
    modular ray tracing and raises :class:`~repro.errors.DecompositionError`.
    """
    if not trackgens:
        raise DecompositionError("no domains to match")
    scale = max(max(tg.geometry.width, tg.geometry.height) for tg in trackgens)
    entry_slots, entry_rays = _interface_slots(trackgens, entering=True)
    exit_slots, exit_rays = _interface_slots(trackgens, entering=False)
    best = match_entries(
        entry_rays, exit_rays,
        quantum=max(scale * len(trackgens) * 1e-9, 1e-13), tol=scale * 1e-6,
    )
    missing = np.flatnonzero(best < 0)
    if missing.size:
        dom, track, _ = exit_slots[missing[0]].tolist()
        x, y = exit_rays[missing[0], :2].tolist()
        raise DecompositionError(
            f"domain {dom} track {track}: no interface partner at ({x:.8g}, {y:.8g})"
        )
    routes = np.concatenate([exit_slots, entry_slots[best]], axis=1).astype(np.intp, copy=False)
    # Sanity: routes must never point a slot at itself.
    looped = np.flatnonzero((routes[:, :3] == routes[:, 3:]).all(axis=1))
    if looped.size:
        fields = ", ".join(map("{}={}".format, ROUTE_COLUMNS, routes[looped[0]].tolist()))
        raise DecompositionError(f"self-route detected: Route({fields})")
    return routes
