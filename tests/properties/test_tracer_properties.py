"""Property-based tests: wavefront tracer and vectorised linking vs their
scalar reference implementations.

The ``batch`` tracer promises segment-for-segment identity with the seed
scalar walker on *any* geometry, and the vectorised ``link_tracks`` hash
join promises the same links and flags as the dict-based matcher under
every boundary-condition combination. Randomized pin-cell problems probe
both claims.
"""

import dataclasses

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TrackingError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.universe import make_pin_cell_universe
from repro.materials import Material
from repro.quadrature import AzimuthalQuadrature
from repro.tracks import lay_tracks, link_tracks
from repro.tracks.raytrace2d import trace_all_reference, trace_all_wavefront
from tests.tracks.tracks2d_oracle import link_tracks_scalar, unlinked_table

_FUEL = Material("prop-fuel", sigma_t=[1.0], sigma_s=[[0.2]])
_WATER = Material("prop-water", sigma_t=[0.5], sigma_s=[[0.3]])

pitches = st.floats(min_value=1.0, max_value=2.2, allow_nan=False)
radius_fractions = st.floats(min_value=0.15, max_value=0.45, allow_nan=False)
rings = st.integers(min_value=1, max_value=2)
sectors = st.sampled_from([1, 4])
azims = st.sampled_from([4, 8])
spacings = st.floats(min_value=0.15, max_value=0.6, allow_nan=False)

#: Per-axis boundary pairs the linker must handle identically.
bc_pairs = st.sampled_from(
    [
        (BoundaryCondition.REFLECTIVE, BoundaryCondition.REFLECTIVE),
        (BoundaryCondition.PERIODIC, BoundaryCondition.PERIODIC),
        (BoundaryCondition.VACUUM, BoundaryCondition.VACUUM),
        (BoundaryCondition.VACUUM, BoundaryCondition.REFLECTIVE),
    ]
)


def make_geometry(pitch, radius_fraction, num_rings, num_sectors, boundary=None):
    pin = make_pin_cell_universe(
        pitch * radius_fraction, _FUEL, _WATER,
        num_rings=num_rings, num_sectors=num_sectors,
    )
    return Geometry(Lattice([[pin]], pitch, pitch), boundary=boundary)


def laydown(geometry, num_azim, spacing):
    try:
        quad = AzimuthalQuadrature(num_azim, geometry.width, geometry.height, spacing)
    except TrackingError:
        assume(False)
    return lay_tracks(geometry, quad)


@settings(max_examples=20, deadline=None)
@given(
    pitch=pitches, radius_fraction=radius_fractions, num_rings=rings,
    num_sectors=sectors, num_azim=azims, spacing=spacings,
)
def test_batch_tracer_equals_reference(pitch, radius_fraction, num_rings, num_sectors, num_azim, spacing):
    g = make_geometry(pitch, radius_fraction, num_rings, num_sectors)
    tracks = unlinked_table(laydown(g, num_azim, spacing))
    ref = trace_all_reference(g, tracks)
    batch = trace_all_wavefront(g, tracks)
    np.testing.assert_array_equal(ref.offsets, batch.offsets)
    np.testing.assert_array_equal(ref.fsr_ids, batch.fsr_ids)
    np.testing.assert_array_equal(ref.lengths, batch.lengths)


def _link_state(tracks):
    return [
        (t.link_fwd, t.link_bwd, t.vacuum_start, t.vacuum_end,
         t.interface_start, t.interface_end)
        for t in tracks
    ]


@settings(max_examples=20, deadline=None)
@given(pitch=pitches, num_azim=azims, spacing=spacings, bc_x=bc_pairs, bc_y=bc_pairs)
def test_vectorised_linking_equals_scalar(pitch, num_azim, spacing, bc_x, bc_y):
    boundary = {"xmin": bc_x[0], "xmax": bc_x[1], "ymin": bc_y[0], "ymax": bc_y[1]}
    g = make_geometry(pitch, 0.3, 1, 1, boundary=boundary)
    columns = laydown(g, num_azim, spacing)
    vec_tracks = dataclasses.replace(unlinked_table(columns), **link_tracks(columns, g)).tracks
    ref_tracks = unlinked_table(columns).tracks
    link_tracks_scalar(ref_tracks, g)
    assert _link_state(vec_tracks) == _link_state(ref_tracks)
