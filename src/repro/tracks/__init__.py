"""Track generation and ray tracing (2D cyclic tracks, 3D z-stacks).

The pipeline mirrors ANT-MOC's stage 3:

1. :mod:`~repro.tracks.laydown` lays cyclic 2D tracks over the geometry
   (modular ray tracing, corrected angles from
   :class:`~repro.quadrature.azimuthal.AzimuthalQuadrature`);
2. :mod:`~repro.tracks.chains` links tracks across reflective/periodic
   boundaries into chains — both as the columns of one
   :class:`~repro.tracks.table2d.TrackTable2D`;
3. :mod:`~repro.tracks.raytrace2d` segments 2D tracks by FSR;
4. :mod:`~repro.tracks.stack3d` expands 2D chains into 3D track stacks;
5. :mod:`~repro.tracks.raytrace3d` produces 3D segments either on the fly
   (OTF) or explicitly (EXP), with the chord-classification (CCM) variant
   in :mod:`~repro.tracks.ccm`.
"""

from repro.tracks.track import Track2D, Track3D, TrackLink
from repro.tracks.segments import SegmentData
from repro.tracks.laydown import lay_tracks
from repro.tracks.chains import link_tracks, build_chains, Chain
from repro.tracks.raytrace2d import trace_all, trace_track
from repro.tracks.stack3d import generate_3d_stacks, Stack3D
from repro.tracks.raytrace3d import (
    ChainSegments,
    TrackTable3D,
    build_chain_tables,
    trace_3d_batch,
    trace_3d_track,
)
from repro.tracks.table2d import TrackTable2D
from repro.tracks.tracers import get_tracer, register_tracer, resolve_tracer, tracer_names
from repro.tracks.cache import TrackingCache, resolve_cache
from repro.tracks.generator import TrackGenerator, TrackGenerator3D, TrackingTimings

__all__ = [
    "Track2D",
    "Track3D",
    "TrackLink",
    "SegmentData",
    "lay_tracks",
    "link_tracks",
    "build_chains",
    "Chain",
    "trace_all",
    "trace_track",
    "generate_3d_stacks",
    "Stack3D",
    "trace_3d_track",
    "trace_3d_batch",
    "ChainSegments",
    "TrackTable2D",
    "TrackTable3D",
    "build_chain_tables",
    "TrackGenerator",
    "TrackGenerator3D",
    "TrackingCache",
    "TrackingTimings",
    "get_tracer",
    "register_tracer",
    "resolve_cache",
    "resolve_tracer",
    "tracer_names",
]
