"""Serialisation of tracking products.

Paper Sec. 2.1: "All 3D tracks are stored along with additional parameters
on radial sections and could be restored during transport solving" — the
tracking setup is expensive and reusable across solves. This module
persists the radial laydown as a single compressed ``.npz`` archive and
restores it against a compatible geometry: one ``t2_<column>`` member per
column of the :class:`~repro.tracks.table2d.TrackTable2D` (tracks, links,
chain CSR) and the 2D segments (``s2_*``), written and read verbatim — no
track or chain object on either side. A 3D laydown is not archived: a 3D
generator rebuilds it from the restored radial laydown and its own polar
and axial settings.

The archive is self-describing: a format version plus shape metadata are
stored and checked on load, so a stale file fails loudly rather than
mis-tracking.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import TrackingError
from repro.tracks.segments import SegmentData
from repro.tracks.table2d import TrackTable2D

#: Version 4 stores the radial laydown only (version 3 also stored the
#: 3D laydown's columns).
FORMAT_VERSION = 4


def save_tracking(path: str | Path, trackgen) -> Path:
    """Persist the radial laydown of a generated
    :class:`~repro.tracks.generator.TrackGenerator` (2D or 3D) to ``path``
    (``.npz``)."""
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
    path = Path(path)
    np.savez_compressed(path, **data)
    return path


def load_tracking(path: str | Path, trackgen) -> None:
    """Restore the radial laydown into a *non-generated* TrackGenerator.

    The generator must wrap the same geometry (bounds and FSR count are
    checked). After loading, it holds what :meth:`generate`'s radial
    pipeline builds — tracked volumes included.
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

    trackgen._table2d = TrackTable2D(
        **{name: archive[f"t2_{name}"] for name in TrackTable2D.columns()}
    )
    trackgen._segments = SegmentData(
        archive["s2_lengths"], archive["s2_fsr"], archive["s2_offsets"]
    )
    trackgen._volumes = trackgen._tracked_volumes()
