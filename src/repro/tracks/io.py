"""Serialisation of tracking products.

Paper Sec. 2.1: "All 3D tracks are stored along with additional parameters
on radial sections and could be restored during transport solving" — the
tracking setup is expensive and reusable across solves. This module
persists everything stage 3 produces as a single compressed ``.npz``
archive and restores it against a compatible geometry: 2D tracks with
links (``t2_*``), 2D segments (``s2_*``), chains (``chain_*``) and, for a
3D generator, the laydown exactly as its
:class:`~repro.tracks.raytrace3d.TrackTable3D` holds it — ``t3_szsz`` plus
one ``t3_<column>`` member per per-track, link and per-stack column,
written and read verbatim (no ``Track3D`` object on either side). The
chain tables are rebuilt from the restored 2D products on load.

The archive is self-describing: a format version plus shape metadata are
stored and checked on load, so a stale file fails loudly rather than
mis-tracking.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path

import numpy as np

from repro.errors import TrackingError
from repro.tracks.chains import Chain
from repro.tracks.raytrace3d import LAYDOWN_COLUMNS, TrackTable3D, build_chain_tables
from repro.tracks.segments import SegmentData
from repro.tracks.track import Track2D, TrackLink

#: Version 2 stores the 3D laydown as the :class:`TrackTable3D` columns.
FORMAT_VERSION = 2

#: Per-track table columns archived as ``t3_<name>`` beside ``t3_szsz``.
_TABLE_COLUMNS = ("chain", "polar", "z_spacing") + LAYDOWN_COLUMNS

#: Sentinel for "no link" in the serialized link arrays.
_NO_LINK = -1


def _links_to_arrays(tracks: list[Track2D]) -> tuple[np.ndarray, np.ndarray]:
    """Encode (link_fwd, link_bwd) per 2D track as int64 arrays.

    Encoding per slot: ``track * 2 + (0 if forward else 1)``, or -1.
    """
    fwd = np.full(len(tracks), _NO_LINK, dtype=np.int64)
    bwd = np.full(len(tracks), _NO_LINK, dtype=np.int64)
    for i, t in enumerate(tracks):
        lf, lb = t.link_fwd, t.link_bwd
        if lf is not None:
            fwd[i] = lf.track * 2 + (0 if lf.forward else 1)
        if lb is not None:
            bwd[i] = lb.track * 2 + (0 if lb.forward else 1)
    return fwd, bwd


def _links_from_codes(codes: np.ndarray) -> list[TrackLink | None]:
    """Decode a whole link array at once (hot path of archive restore)."""
    return [
        None if code < 0 else TrackLink(code >> 1, (code & 1) == 0)
        for code in codes.tolist()
    ]


def save_tracking(path: str | Path, trackgen) -> Path:
    """Persist a generated :class:`~repro.tracks.generator.TrackGenerator`
    (2D or 3D) to ``path`` (``.npz``)."""
    tracks = trackgen.tracks
    segments = trackgen.segments
    data: dict[str, np.ndarray] = {
        "format_version": np.array([FORMAT_VERSION]),
        "bounds": np.array(trackgen.geometry.bounds),
        "num_fsrs": np.array([trackgen.geometry.num_fsrs]),
        # 2D tracks
        "t2_xyxy": np.array([[t.x0, t.y0, t.x1, t.y1] for t in tracks]),
        "t2_phi": np.array([t.phi for t in tracks]),
        "t2_azim": np.array([t.azim for t in tracks], dtype=np.int32),
        "t2_flags": np.array(
            [
                [t.vacuum_start, t.vacuum_end, t.interface_start, t.interface_end]
                for t in tracks
            ],
            dtype=np.int8,
        ),
        # 2D segments
        "s2_lengths": segments.lengths,
        "s2_fsr": segments.fsr_ids,
        "s2_offsets": segments.offsets,
        # chains
        "chain_elements": np.array(
            [[c.index, uid, int(fwd)] for c in trackgen.chains for uid, fwd in c.elements],
            dtype=np.int64,
        ).reshape(-1, 3),
        "chain_closed": np.array([c.closed for c in trackgen.chains], dtype=np.int8),
        "chain_azim": np.array([c.azim for c in trackgen.chains], dtype=np.int32),
        "chain_iface": np.array(
            [[c.starts_at_interface, c.ends_at_interface] for c in trackgen.chains],
            dtype=np.int8,
        ),
    }
    data["t2_link_fwd"], data["t2_link_bwd"] = _links_to_arrays(tracks)
    if hasattr(trackgen, "track_table"):
        table = trackgen.track_table()
        data["t3_szsz"] = table.szsz
        for name in _TABLE_COLUMNS:
            data[f"t3_{name}"] = getattr(table, name)
    path = Path(path)
    np.savez_compressed(path, **data)
    return path


def load_tracking(path: str | Path, trackgen) -> None:
    """Restore tracking products into a *non-generated* TrackGenerator.

    The generator must wrap the same geometry (bounds and FSR count are
    checked). After loading, the generator behaves as if
    :meth:`generate` had run — volumes included.
    """
    archive = np.load(Path(path))
    version = int(archive["format_version"][0])
    if version != FORMAT_VERSION:
        raise TrackingError(
            f"tracking archive format {version} != supported {FORMAT_VERSION}"
        )
    bounds = tuple(archive["bounds"])
    if not np.allclose(bounds, trackgen.geometry.bounds):
        raise TrackingError(
            f"archive bounds {bounds} do not match geometry {trackgen.geometry.bounds}"
        )
    if int(archive["num_fsrs"][0]) != trackgen.geometry.num_fsrs:
        raise TrackingError("archive FSR count does not match the geometry")

    # Rebuild the track objects with one C-level ``map`` per list: every
    # constructor argument is a plain-python column (``tolist`` round-trips
    # float64 exactly), so no per-item indexing or attribute writes remain.
    xyxy = archive["t2_xyxy"]
    flags = archive["t2_flags"] != 0
    n2 = xyxy.shape[0]
    tracks: list[Track2D] = list(
        map(
            Track2D,
            range(n2),
            archive["t2_azim"].tolist(),
            xyxy[:, 0].tolist(),
            xyxy[:, 1].tolist(),
            xyxy[:, 2].tolist(),
            xyxy[:, 3].tolist(),
            archive["t2_phi"].tolist(),
            repeat(0),  # index_in_azim (laydown metadata, not archived)
            _links_from_codes(archive["t2_link_fwd"]),
            _links_from_codes(archive["t2_link_bwd"]),
            repeat(""),  # start_side
            repeat(""),  # end_side
            flags[:, 0].tolist(),
            flags[:, 1].tolist(),
            flags[:, 2].tolist(),
            flags[:, 3].tolist(),
        )
    )
    trackgen._tracks = tracks
    trackgen._segments = SegmentData(
        archive["s2_lengths"], archive["s2_fsr"], archive["s2_offsets"]
    )

    elements = archive["chain_elements"]
    closed = archive["chain_closed"].astype(bool)
    chain_azim = archive["chain_azim"]
    iface = archive["chain_iface"].astype(bool)
    # Rows are written grouped by chain; a stable sort + searchsorted
    # recovers each group without an O(chains * rows) scan.
    order = np.argsort(elements[:, 0], kind="stable")
    grouped = elements[order]
    group_lo = np.searchsorted(grouped[:, 0], np.arange(closed.size), side="left")
    group_hi = np.searchsorted(grouped[:, 0], np.arange(closed.size), side="right")
    grouped_rows = grouped.tolist()
    chains: list[Chain] = []
    for index in range(closed.size):
        rows = grouped_rows[group_lo[index] : group_hi[index]]
        elems = [(uid, bool(fwd)) for _, uid, fwd in rows]
        offsets, total = [], 0.0
        for uid, _ in elems:
            offsets.append(total)
            total += tracks[uid].length
        chains.append(
            Chain(
                index=index,
                elements=elems,
                closed=bool(closed[index]),
                offsets=offsets,
                length=total,
                azim=int(chain_azim[index]),
                starts_at_interface=bool(iface[index, 0]),
                ends_at_interface=bool(iface[index, 1]),
            )
        )
    trackgen._chains = chains
    trackgen._volumes = trackgen._tracked_volumes()

    if "t3_szsz" in archive and hasattr(trackgen, "track_table"):
        trackgen._chain_tables = build_chain_tables(chains, tracks, trackgen._segments)
        trackgen._track_table = TrackTable3D(
            archive["t3_szsz"],
            chains=chains,
            chain_tables=trackgen._chain_tables,
            z_edges=trackgen.geometry3d.axial_mesh.z_edges,
            **{name: archive[f"t3_{name}"] for name in _TABLE_COLUMNS},
        )
