"""Serialisation of tracking products.

Paper Sec. 2.1: "All 3D tracks are stored along with additional parameters
on radial sections and could be restored during transport solving" — the
tracking setup is expensive and reusable across solves. This module
persists everything stage 3 produces as a single compressed ``.npz``
archive and restores it against a compatible geometry. The laydown is
archived exactly as the generator holds it, written and read verbatim:
one ``t2_<column>`` member per column of the
:class:`~repro.tracks.table2d.TrackTable2D` (tracks, links, chain CSR),
the 2D segments (``s2_*``) and, for a 3D generator, ``t3_szsz`` plus one
``t3_<column>`` member per per-track, link and per-stack column of the
:class:`~repro.tracks.raytrace3d.TrackTable3D` — no track or chain object
on either side. The chain tables are rebuilt from the restored 2D
products on load.

The archive is self-describing: a format version plus shape metadata are
stored and checked on load, so a stale file fails loudly rather than
mis-tracking.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import TrackingError
from repro.tracks.raytrace3d import LAYDOWN_COLUMNS, TrackTable3D, build_chain_tables
from repro.tracks.segments import SegmentData
from repro.tracks.table2d import TrackTable2D

#: Version 3 stores the radial laydown as the :class:`TrackTable2D` columns
#: (version 2 did so for the 3D laydown only).
FORMAT_VERSION = 3

#: Per-track table columns archived as ``t3_<name>`` beside ``t3_szsz``.
_TABLE_COLUMNS = ("chain", "polar", "z_spacing") + LAYDOWN_COLUMNS


def save_tracking(path: str | Path, trackgen) -> Path:
    """Persist a generated :class:`~repro.tracks.generator.TrackGenerator`
    (2D or 3D) to ``path`` (``.npz``)."""
    radial = trackgen.track_table_2d()
    segments = trackgen.segments
    data: dict[str, np.ndarray] = {
        "format_version": np.array([FORMAT_VERSION]),
        "bounds": np.array(trackgen.geometry.bounds),
        "num_fsrs": np.array([trackgen.geometry.num_fsrs]),
        "s2_lengths": segments.lengths,
        "s2_fsr": segments.fsr_ids,
        "s2_offsets": segments.offsets,
    }
    for name in TrackTable2D.columns():
        data[f"t2_{name}"] = getattr(radial, name)
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

    # A generator that adopted its radial laydown keeps the objects it
    # shares (every slab of a z-decomposed solve holds the same table).
    if trackgen._table2d is None:
        trackgen._table2d = TrackTable2D(
            **{name: archive[f"t2_{name}"] for name in TrackTable2D.columns()}
        )
        trackgen._segments = SegmentData(
            archive["s2_lengths"], archive["s2_fsr"], archive["s2_offsets"]
        )
        trackgen._volumes = trackgen._tracked_volumes()

    if "t3_szsz" in archive and hasattr(trackgen, "track_table"):
        radial = trackgen._table2d
        trackgen._track_table = TrackTable3D(
            archive["t3_szsz"],
            **build_chain_tables(radial, trackgen._segments),
            chain_closed=radial.chain_closed,
            z_edges=trackgen.geometry3d.axial_mesh.z_edges,
            **{name: archive[f"t3_{name}"] for name in _TABLE_COLUMNS},
        )
