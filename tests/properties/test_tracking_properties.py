"""Property-based tests (hypothesis) for the tracking substrate.

The cyclic-tracking invariants must hold for *any* rectangle and any
valid tracking parameters, not just the fixtures — these are the
properties the reflective-boundary physics depends on.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TrackingError

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import Material
from repro.quadrature import AzimuthalQuadrature
from repro.tracks import lay_tracks, trace_all
from tests.tracks.tracks2d_oracle import radial_table, unlinked_table

_WATER = Material("prop-water", sigma_t=[1.0], sigma_s=[[0.5]])

dims = st.floats(min_value=0.8, max_value=12.0, allow_nan=False)
spacings = st.floats(min_value=0.15, max_value=2.0, allow_nan=False)
azims = st.sampled_from([4, 8, 16])


def make_geometry(width, height, boundary=None):
    u = make_homogeneous_universe(_WATER)
    return Geometry(Lattice([[u]], width, height), boundary=boundary)


def build_quadrature(num_azim, width, height, spacing):
    """Skip inputs where the cyclic correction collapses angles."""
    try:
        return AzimuthalQuadrature(num_azim, width, height, spacing)
    except TrackingError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(width=dims, height=dims, num_azim=azims, spacing=spacings)
def test_laydown_count_and_boundary(width, height, num_azim, spacing):
    g = make_geometry(width, height)
    quad = build_quadrature(num_azim, g.width, g.height, spacing)
    tracks = unlinked_table(lay_tracks(g, quad)).tracks
    assert len(tracks) == quad.total_tracks
    tol = 1e-7 * max(width, height)
    for t in tracks:
        assert g.boundary_side(t.x0, t.y0, tol=tol) is not None
        assert g.boundary_side(t.x1, t.y1, tol=tol) is not None
        assert t.length > 0


@settings(max_examples=25, deadline=None)
@given(width=dims, height=dims, num_azim=azims, spacing=spacings)
def test_area_coverage_every_angle(width, height, num_azim, spacing):
    """Each azimuthal family tiles the domain area exactly."""
    g = make_geometry(width, height)
    quad = build_quadrature(num_azim, g.width, g.height, spacing)
    tracks = unlinked_table(lay_tracks(g, quad)).tracks
    area = width * height
    for a in range(quad.num_angles):
        family = sum(t.length for t in tracks if t.azim == a) * quad.spacing[a]
        assert abs(family - area) < 1e-8 * area


@settings(max_examples=20, deadline=None)
@given(width=dims, height=dims, num_azim=azims, spacing=spacings)
def test_reflective_linking_is_permutation(width, height, num_azim, spacing):
    """Reflective linking never fails and forms a perfect permutation of
    (track, direction) slots — the exact-closure property of cyclic
    tracking."""
    g = make_geometry(width, height)
    quad = build_quadrature(num_azim, g.width, g.height, spacing)
    tracks = radial_table(g, quad).tracks  # linking raises on any unmatched end
    slots = set()
    for t in tracks:
        slots.add((t.link_fwd.track, t.link_fwd.forward))
        slots.add((t.link_bwd.track, t.link_bwd.forward))
    assert len(slots) == 2 * len(tracks)


@settings(max_examples=20, deadline=None)
@given(width=dims, height=dims, num_azim=azims, spacing=spacings)
def test_chains_partition_tracks(width, height, num_azim, spacing):
    g = make_geometry(width, height)
    quad = build_quadrature(num_azim, g.width, g.height, spacing)
    table = radial_table(g, quad)
    tracks, chains = table.tracks, table.chains
    seen = sorted(uid for c in chains for uid, _ in c.elements)
    assert seen == list(range(len(tracks)))
    assert all(c.closed for c in chains)


@settings(max_examples=20, deadline=None)
@given(width=dims, height=dims, num_azim=st.sampled_from([4, 8]), spacing=spacings)
def test_periodic_linking_is_permutation(width, height, num_azim, spacing):
    bc = {s: BoundaryCondition.PERIODIC for s in ("xmin", "xmax", "ymin", "ymax")}
    g = make_geometry(width, height, boundary=bc)
    quad = build_quadrature(num_azim, g.width, g.height, spacing)
    tracks = radial_table(g, quad).tracks
    for t in tracks:
        assert t.link_fwd is not None and t.link_bwd is not None


@settings(max_examples=15, deadline=None)
@given(
    width=st.floats(min_value=1.0, max_value=5.0),
    height=st.floats(min_value=1.0, max_value=5.0),
    nx=st.integers(min_value=1, max_value=3),
    ny=st.integers(min_value=1, max_value=3),
    spacing=st.floats(min_value=0.3, max_value=1.0),
)
def test_segments_sum_to_chords_in_lattices(width, height, nx, ny, spacing):
    u = make_homogeneous_universe(_WATER)
    rows = [[u] * nx for _ in range(ny)]
    g = Geometry(Lattice(rows, width / nx, height / ny))
    quad = build_quadrature(4, g.width, g.height, spacing)
    table = unlinked_table(lay_tracks(g, quad))
    tracks = table.tracks
    segments = trace_all(g, table)
    for t in tracks:
        assert abs(segments.track_length(t.uid) - t.length) < 1e-9 * max(t.length, 1.0)
    # tracked total area equals the geometric area
    weights = np.empty(segments.num_segments)
    for t in tracks:
        lo, hi = segments.offsets[t.uid], segments.offsets[t.uid + 1]
        weights[lo:hi] = quad.weights[t.azim] * quad.spacing[t.azim]
    volume = segments.fsr_path_lengths(g.num_fsrs, weights).sum()
    assert abs(volume - width * height) < 1e-8 * width * height
