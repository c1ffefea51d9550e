"""Track linking and chain construction.

Cyclic track laydown puts every boundary crossing of a track family on a
shared half-integer grid, so reflective and periodic boundary conditions
reduce to an exact pairing of track ends. :func:`link_tracks` computes the
pairing geometrically (one tolerance-robust hash join over all track ends)
and :func:`build_chains` follows the links into chains — the 1D "unrolled"
paths over which 3D track stacks are laid (paper Sec. 3.2.1's "2D track
chain" indexing).

Both read and return **columns**, keyed by the parameter names of
:class:`~repro.tracks.table2d.TrackTable2D`, which carries them from then
on: :func:`link_tracks` the ``(T, 2)`` columns ``link_uid link_fwd vacuum
interface`` (column 0 the forward exit at ``(x1, y1)``, column 1 the
backward exit at ``(x0, y0)`` — the convention of the 3D laydown),
:func:`build_chains` the chain CSR. :class:`Chain` is the object view of
one CSR row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrackingError
from repro.geometry.geometry import SIDES, BoundaryCondition, Geometry

#: Quantisation used when matching boundary points, relative to domain size.
_MATCH_REL_TOL = 1e-9

#: :func:`match_entries` packs four rank-compressed key dimensions into one
#: int64 code; the product of their sizes must stay below this.
MAX_KEY_SPAN = 1 << 62


def link_tracks(
    laydown: dict[str, np.ndarray], geometry: Geometry
) -> dict[str, np.ndarray]:
    """Pair every track end with the track its flux continues on.

    Reads the ``xyxy``, ``direction`` and side columns of ``laydown``
    (:func:`~repro.tracks.laydown.lay_tracks`) and returns the ``(T, 2)``
    link columns: ``link_uid`` / ``link_fwd`` say which track the flux
    leaving each end enters and whether it then runs start-to-end
    (``-1`` / ``False``: nowhere), ``vacuum`` / ``interface`` flag the ends
    it leaves the domain through.

    Raises :class:`~repro.errors.TrackingError` if a reflective or periodic
    end finds no partner — which indicates a broken cyclic laydown.
    """
    start, end = laydown["xyxy"][:, :2], laydown["xyxy"][:, 2:]
    u = laydown["direction"]
    n = u.shape[0]
    scale = max(geometry.width, geometry.height)

    # Rays ``(x, y, ux, uy)``. Entries: flux enters forward at the start
    # point, backward at the end; exits: forward at the end point, backward
    # at the start.
    entries = np.vstack([np.hstack([start, u]), np.hstack([end, -u])])
    exits = np.vstack([np.hstack([end, u]), np.hstack([start, -u])])
    side = np.concatenate([laydown["end_side"], laydown["start_side"]])

    bcs = [geometry.boundary[name] for name in SIDES]
    for bc in bcs:
        if not isinstance(bc, BoundaryCondition):  # all four members are handled
            raise TrackingError(f"unhandled boundary condition {bc}")

    def side_mask(bc: BoundaryCondition) -> np.ndarray:
        return np.array([b is bc for b in bcs], dtype=bool)[side]

    is_ref = side_mask(BoundaryCondition.REFLECTIVE)
    is_per = side_mask(BoundaryCondition.PERIODIC)
    match = is_ref | is_per

    # What an exit looks for: reflective mirrors the direction in the
    # side's plane; periodic shifts the point across the domain.
    width, height = geometry.width, geometry.height
    shift = np.array([[width, 0.0], [-width, 0.0], [0.0, height], [0.0, -height]])
    flip = np.array([[-1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, -1.0]])
    queries = exits.copy()
    queries[is_per, :2] += shift[side[is_per]]
    queries[is_ref, 2:] *= flip[side[is_ref]]

    best = match_entries(
        entries, queries[match],
        quantum=max(scale * _MATCH_REL_TOL, 1e-13), tol=scale * 1e-6,
    )

    failed = np.flatnonzero(best < 0)
    if failed.size:
        # Report the first failing exit in track order, forward exit
        # before backward exit.
        q_index = np.flatnonzero(match)[failed]
        j = int(q_index[np.argmin(q_index % n * 2 + q_index // n)])
        x, y, qux, quy = exits[j].tolist()
        raise TrackingError(
            f"track {j % n}: no {bcs[int(side[j])].value} partner at ({x:.8g}, {y:.8g}) "
            f"side {SIDES[int(side[j])]} direction ({qux:.6g}, {quy:.6g})"
        )

    # Entry ``e`` is the forward traversal of track ``e`` for ``e < n``,
    # else the backward traversal of track ``e - n``.
    link_uid = np.full(2 * n, -1, dtype=np.int64)
    link_uid[match] = best % n
    link_fwd = np.zeros(2 * n, dtype=bool)
    link_fwd[match] = best < n
    columns = {
        "link_uid": link_uid,
        "link_fwd": link_fwd,
        "vacuum": side_mask(BoundaryCondition.VACUUM),
        "interface": side_mask(BoundaryCondition.INTERFACE),
    }
    # Forward exits fill the first ``n`` slots, backward exits the rest.
    return {name: column.reshape(2, n).T for name, column in columns.items()}


def match_entries(
    entries: np.ndarray, queries: np.ndarray, quantum: float, tol: float
) -> np.ndarray:
    """Nearest-entry index per query (or -1), batched.

    Entries and queries are rays, rows ``(x, y, ux, uy)``. Both are binned
    by 4D quantized keys; a query scans the 3^4 neighbour-bin combinations
    in nested ``(-1, 0, +1)`` order, entries of one bin in index order,
    keeps those within ``|du| <= 1e-7`` of its direction and takes the
    nearest by point distance within ``tol``, ``<=`` tie-break
    (later-scanned candidates win ties). Raises
    :class:`~repro.errors.TrackingError` when the packed key codes would
    overflow ``int64`` (:data:`MAX_KEY_SPAN`).
    """
    ex, ey, eux, euy = entries.T
    mx, my, mux, muy = queries.T

    def keys(x, y, ux, uy):
        kx = np.round(x / quantum).astype(np.int64)
        ky = np.round(y / quantum).astype(np.int64)
        kux = np.round(ux / 1e-9).astype(np.int64)
        kuy = np.round(uy / 1e-9).astype(np.int64)
        return kx, ky, kux, kuy

    e_keys = keys(ex, ey, eux, euy)
    q_keys = keys(mx, my, mux, muy)

    # Rank-compress each key dimension over the entry values; queries look
    # up their (key + offset) ranks per dimension, missing values masked.
    tables = [np.unique(k) for k in e_keys]
    sizes = [int(t.size) for t in tables]
    span = 1
    for s in sizes:
        span *= max(s, 1)
    if span >= MAX_KEY_SPAN:
        raise TrackingError(
            f"track-end matching needs a key span of {span} "
            f"({' x '.join(map(str, sizes))} distinct quantized coordinates and "
            f"directions), at or above the int64 packing limit {MAX_KEY_SPAN}"
        )

    e_code = np.zeros(ex.size, dtype=np.int64)
    for table, size, k in zip(tables, sizes, e_keys):
        e_code = e_code * size + np.searchsorted(table, k)
    order = np.argsort(e_code, kind="stable")
    e_sorted = e_code[order]

    # Per dimension, the rank (and validity) of key-1, key, key+1.
    ranks: list[dict[int, np.ndarray]] = []
    valids: list[dict[int, np.ndarray]] = []
    for table, k in zip(tables, q_keys):
        r: dict[int, np.ndarray] = {}
        v: dict[int, np.ndarray] = {}
        for d in (-1, 0, 1):
            val = k + d
            pos = np.searchsorted(table, val)
            pos = np.minimum(pos, table.size - 1)  # entries are never empty
            v[d] = table[pos] == val
            r[d] = pos
        ranks.append(r)
        valids.append(v)

    nq = mx.size
    best = np.full(nq, -1, dtype=np.int64)
    best_d = np.full(nq, tol)
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for du in (-1, 0, 1):
                for dv in (-1, 0, 1):
                    ok = (
                        valids[0][dx]
                        & valids[1][dy]
                        & valids[2][du]
                        & valids[3][dv]
                    )
                    if not ok.any():
                        continue
                    cand = (
                        (ranks[0][dx] * sizes[1] + ranks[1][dy]) * sizes[2]
                        + ranks[2][du]
                    ) * sizes[3] + ranks[3][dv]
                    lo = np.searchsorted(e_sorted, cand, side="left")
                    hi = np.searchsorted(e_sorted, cand, side="right")
                    active = ok & (lo < hi)
                    if not active.any():
                        continue
                    # Bins may hold several entries; walk run positions in
                    # insertion order (the stable sort preserves it).
                    offset = 0
                    while True:
                        idx = lo + offset
                        active &= idx < hi
                        if not active.any():
                            break
                        e = order[np.where(active, idx, 0)]
                        dir_ok = (np.abs(eux[e] - mux) <= 1e-7) & (
                            np.abs(euy[e] - muy) <= 1e-7
                        )
                        d = np.hypot(ex[e] - mx, ey[e] - my)
                        upd = active & dir_ok & (d <= best_d)
                        best_d[upd] = d[upd]
                        best[upd] = e[upd]
                        offset += 1
    return best


@dataclass
class Chain:
    """A maximal path of linked 2D tracks.

    ``elements`` lists ``(track_uid, forward)`` in traversal order;
    ``closed`` marks a periodic cycle (flux re-enters the first element
    after the last). Open chains start and end at vacuum or interface
    boundaries. ``offsets[i]`` is the arc length at which element ``i``
    begins; ``length`` is the total arc length.
    """

    index: int
    elements: list[tuple[int, bool]]
    closed: bool
    offsets: list[float]
    length: float
    #: Azimuthal label: the smaller of the two (complementary) azimuthal
    #: indices the chain's tracks alternate between. Complementary angles
    #: share weight and corrected spacing, so the label determines both.
    azim: int = 0
    #: True when the chain terminates on an interface (decomposed runs).
    starts_at_interface: bool = False
    ends_at_interface: bool = False

    @property
    def num_tracks(self) -> int:
        return len(self.elements)


def build_chains(
    laydown: dict[str, np.ndarray], links: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Group linked tracks into chains; returns the chain CSR columns.

    Every (track, direction) traversal belongs to exactly one chain; since
    traversing a chain backward visits the same tracks, each *track*
    appears in exactly one chain. Chains are found by walking backward
    links to a terminal end (or cycle closure) and then forward.

    Chain ``c`` owns elements ``chain_ptr[c]:chain_ptr[c + 1]`` of
    ``el_uid`` / ``el_fwd`` (track and traversal direction, in traversal
    order) and ``el_offset`` (the arc length at which the element begins:
    a left-to-right sum of track lengths, as is ``chain_length``).
    ``chain_azim`` is the smaller of the two complementary azimuthal
    indices the chain alternates between — they share weight and corrected
    spacing, so the label determines both; ``chain_iface[c]`` says whether
    the chain starts / ends on an interface.
    """
    track_length = laydown["length"].tolist()
    track_azim = laydown["azim"].tolist()
    link_uid = links["link_uid"].tolist()
    link_fwd = links["link_fwd"].tolist()
    interface = links["interface"].tolist()
    num_tracks = len(track_length)
    visited = [False] * num_tracks

    def step_forward(uid: int, forward: bool) -> tuple[int, bool] | None:
        end = 0 if forward else 1
        target = link_uid[uid][end]
        if target < 0:
            return None
        return target, link_fwd[uid][end]

    def step_backward(uid: int, forward: bool) -> tuple[int, bool] | None:
        # The traversal (uid, forward) was entered at its start point; who
        # feeds it? Reverse the traversal and step forward, then reverse.
        prev = step_forward(uid, not forward)
        if prev is None:
            return None
        p_uid, p_fwd = prev
        return p_uid, not p_fwd

    chain_ptr = [0]
    el_uid: list[int] = []
    el_fwd: list[bool] = []
    el_offset: list[float] = []
    chain_length: list[float] = []
    chain_closed: list[bool] = []
    chain_azim: list[int] = []
    chain_iface: list[tuple[bool, bool]] = []
    for seed in range(num_tracks):
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
        first = len(el_uid)
        length = 0.0
        cursor: tuple[int, bool] | None = head
        while cursor is not None:
            uid, fwd = cursor
            if visited[uid]:
                break
            visited[uid] = True
            el_uid.append(uid)
            el_fwd.append(fwd)
            el_offset.append(length)
            length += track_length[uid]
            cursor = step_forward(uid, fwd)
            if closed and cursor == head:
                break
        if len(el_uid) == first:
            continue
        chain_ptr.append(len(el_uid))
        chain_length.append(length)
        chain_closed.append(closed)
        chain_azim.append(min(track_azim[uid] for uid in el_uid[first:]))
        # A chain starts where its first element is entered and ends where
        # its last is left: column 0 is a track's end, column 1 its start.
        chain_iface.append((
            interface[el_uid[first]][1 if el_fwd[first] else 0],
            interface[el_uid[-1]][0 if el_fwd[-1] else 1],
        ))
    return {
        "chain_ptr": np.array(chain_ptr, dtype=np.int64),
        "el_uid": np.array(el_uid, dtype=np.int64),
        "el_fwd": np.array(el_fwd, dtype=bool),
        "el_offset": np.array(el_offset, dtype=np.float64),
        "chain_length": np.array(chain_length, dtype=np.float64),
        "chain_closed": np.array(chain_closed, dtype=bool),
        "chain_azim": np.array(chain_azim, dtype=np.int64),
        "chain_iface": np.array(chain_iface, dtype=bool).reshape(-1, 2),
    }
