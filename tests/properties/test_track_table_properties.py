"""The column laydowns against the per-object code they replaced, bitwise.

``tests/tracks/stack3d_oracle.py`` and ``tests/tracks/tracks2d_oracle.py``
keep the parents' object-building loops verbatim; every
:class:`TrackTable3D` and :class:`TrackTable2D` column, the sweep
topologies, the tracked volumes and the interface routes (z-planes and
lattice cuts) must equal what those loops produce — values, order and all.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TrackingError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import Material
from repro.parallel import DecomposedSolver, ZDecomposedSolver
from repro.tracks import TrackGenerator, TrackGenerator3D, lay_tracks
from tests.tracks import stack3d_oracle as oracle
from tests.tracks import tracks2d_oracle as oracle2d

_A = Material(
    "table-a", sigma_t=[1.0], sigma_s=[[0.5]], nu_sigma_f=[0.3], sigma_f=[0.12], chi=[1.0]
)
_B = Material("table-b", sigma_t=[2.0], sigma_s=[[0.3]])

_BCS = [BoundaryCondition.VACUUM, BoundaryCondition.REFLECTIVE, BoundaryCondition.INTERFACE]
radial_bcs = st.one_of(
    st.none(),  # all reflective: closed chains
    st.fixed_dictionaries(
        {side: st.sampled_from(_BCS) for side in ("xmin", "xmax", "ymin", "ymax")}
    ),
)
axial_bcs = st.sampled_from(_BCS)
extents = st.floats(min_value=0.8, max_value=4.0, allow_nan=False)
spacings = st.floats(min_value=0.25, max_value=1.2, allow_nan=False)
z_origins = st.floats(min_value=-2.0, max_value=3.0, allow_nan=False)


def radial_geometry(width, height, radial_bc):
    a, b = make_homogeneous_universe(_A), make_homogeneous_universe(_B)
    return Geometry(Lattice([[a, b], [b, a]], width, height), boundary=radial_bc)


def generate(radial, mesh, bc_zmin, bc_zmax, polar_spacing, num_polar):
    g3 = ExtrudedGeometry(radial, mesh, boundary_zmin=bc_zmin, boundary_zmax=bc_zmax)
    try:
        return TrackGenerator3D(
            g3, num_azim=4, azim_spacing=0.5, polar_spacing=polar_spacing,
            num_polar=num_polar,
        ).generate()
    except TrackingError:
        assume(False)


def link_columns(tracks, end):
    """``(link_uid, link_fwd, vacuum, interface)`` of one end of every
    oracle object: ``end`` 0 is the forward exit, 1 the backward exit."""
    links = [(t.link_fwd, t.link_bwd)[end] for t in tracks]
    return (
        [-1 if link is None else link.track for link in links],
        [link is not None and link.forward for link in links],
        [(t.vacuum_end, t.vacuum_start)[end] for t in tracks],
        [(t.interface_end, t.interface_start)[end] for t in tracks],
    )


@settings(max_examples=40, deadline=None)
@given(
    width=extents, height=extents, radial_bc=radial_bcs,
    bc_zmin=axial_bcs, bc_zmax=axial_bcs,
    zmin=z_origins, z_height=extents, layers=st.integers(1, 3),
    polar_spacing=spacings, num_polar=st.sampled_from([2, 4]),
)
def test_columns_equal_the_oracle_objects(
    width, height, radial_bc, bc_zmin, bc_zmax, zmin, z_height, layers,
    polar_spacing, num_polar,
):
    mesh = AxialMesh.uniform(zmin, zmin + z_height, layers)
    tg = generate(
        radial_geometry(width, height, radial_bc), mesh, bc_zmin, bc_zmax,
        polar_spacing, num_polar,
    )
    tracks, stacks = oracle.laydown(
        tg.chains, tg.polar, polar_spacing, mesh.zmin, mesh.zmax, bc_zmin, bc_zmax
    )
    table = tg.track_table()
    equal = np.testing.assert_array_equal

    # Per-track columns, coordinates first.
    for name in ("s0", "z0", "s1", "z1", "chain", "polar", "z_spacing"):
        equal(getattr(table, name), [getattr(t, name) for t in tracks], err_msg=name)
    for end in (0, 1):
        columns = (table.link_uid, table.link_fwd, table.vacuum, table.interface)
        for column, want in zip(columns, link_columns(tracks, end)):
            equal(column[:, end], want)
    # Per-stack columns and membership.
    for name, attr in (
        ("stack_chain", "chain"), ("stack_polar", "polar"), ("stack_theta", "theta_eff"),
        ("stack_z_spacing", "z_spacing"), ("stack_closed", "closed"),
    ):
        equal(getattr(table, name), [getattr(s, attr) for s in stacks], err_msg=name)
    ptr = table.stack_ptr.tolist()
    assert [list(range(lo, hi)) for lo, hi in zip(ptr, ptr[1:])] == [
        s.track_uids for s in stacks
    ]
    # The object view: ``theta`` (derived, not stored), then every field
    # at once through dataclass equality.
    equal([t.theta for t in tg.tracks3d], [t.theta for t in tracks])
    assert tg.tracks3d == tracks
    assert tg.stacks == stacks

    # The 3D sweep topology is the object-built one.
    topology = tg.sweep_topology_3d()
    want = oracle2d.topology_from_tracks(tracks, topology.weights, None)
    for name in ("next_track", "next_dir", "terminal", "interface"):
        equal(getattr(topology, name), getattr(want, name), err_msg=name)
        assert getattr(topology, name).dtype == getattr(want, name).dtype


@settings(max_examples=12, deadline=None)
@given(
    width=extents, height=extents, radial_bc=radial_bcs,
    num_domains=st.sampled_from([2, 3]), z_height=extents,
    polar_spacing=spacings, num_polar=st.sampled_from([2, 4]),
    bc_zmax=st.sampled_from(_BCS[:2]),
)
def test_routes_equal_the_oracle_loops(
    width, height, radial_bc, num_domains, z_height, polar_spacing, num_polar, bc_zmax
):
    g3 = ExtrudedGeometry(
        radial_geometry(width, height, radial_bc),
        AxialMesh.uniform(0.0, z_height, num_domains),
        boundary_zmin=BoundaryCondition.REFLECTIVE, boundary_zmax=bc_zmax,
    )
    try:
        solver = ZDecomposedSolver(
            g3, num_domains=num_domains, num_azim=4, azim_spacing=0.5,
            polar_spacing=polar_spacing, num_polar=num_polar, engine="inproc",
        )
    except TrackingError:
        assume(False)
    assert solver.routes
    assert solver.routes == oracle.match_interfaces(solver.domains)


# ---------------------------------------------------------------- radial


#: One axis of radial boundary conditions: a periodic pair, or any mix of
#: the three conditions a side takes alone.
axis_bcs = st.one_of(
    st.just((BoundaryCondition.PERIODIC, BoundaryCondition.PERIODIC)),
    st.tuples(st.sampled_from(_BCS), st.sampled_from(_BCS)),
)
azim_counts = st.sampled_from([4, 8, 16])
azim_spacings = st.floats(min_value=0.15, max_value=0.9, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    width=extents, height=extents, bc_x=axis_bcs, bc_y=axis_bcs,
    num_azim=azim_counts, spacing=azim_spacings,
)
def test_radial_columns_equal_the_oracle_objects(width, height, bc_x, bc_y, num_azim, spacing):
    boundary = {"xmin": bc_x[0], "xmax": bc_x[1], "ymin": bc_y[0], "ymax": bc_y[1]}
    g = radial_geometry(width, height, boundary)
    try:
        tg = TrackGenerator(g, num_azim=num_azim, azim_spacing=spacing, num_polar=2).generate()
    except TrackingError:
        assume(False)
    table = tg.track_table_2d()
    equal = np.testing.assert_array_equal

    # The oracle: unlinked objects of the same laydown, the dict-based
    # walker over them, the attribute-following chain walk.
    tracks = oracle2d.unlinked_table(lay_tracks(g, tg.azimuthal)).tracks
    oracle2d.link_tracks_scalar(tracks, g)
    chains = oracle2d.walk_chains(tracks)

    for end in (0, 1):
        columns = (table.link_uid, table.link_fwd, table.vacuum, table.interface)
        for column, want in zip(columns, link_columns(tracks, end)):
            equal(column[:, end], want)
    equal(table.length, [t.length for t in tracks])
    equal(table.direction, [t.direction for t in tracks])
    # The chain CSR, row by row, then every field of both object views at
    # once through dataclass equality (offsets and lengths to the bit).
    ptr = table.chain_ptr.tolist()
    assert [
        list(zip(table.el_uid[lo:hi].tolist(), table.el_fwd[lo:hi].tolist()))
        for lo, hi in zip(ptr, ptr[1:])
    ] == [c.elements for c in chains]
    equal(table.el_offset, [offset for c in chains for offset in c.offsets])
    for name, attr in (
        ("chain_length", "length"), ("chain_closed", "closed"), ("chain_azim", "azim"),
    ):
        equal(getattr(table, name), [getattr(c, attr) for c in chains], err_msg=name)
    equal(
        table.chain_iface.reshape(-1, 2),
        np.array([(c.starts_at_interface, c.ends_at_interface) for c in chains]).reshape(-1, 2),
    )
    assert tg.tracks == tracks
    assert tg.chains == chains

    # The 2D sweep topology is the object-built one; the per-segment
    # passes are the per-track loops.
    topology = tg.sweep_topology()
    want = oracle2d.topology_from_tracks(tracks, topology.weights, topology.inv_sin)
    for name in ("next_track", "next_dir", "terminal", "interface"):
        equal(getattr(topology, name), getattr(want, name), err_msg=name)
        assert getattr(topology, name).dtype == getattr(want, name).dtype
    equal(topology.weights, tg.quadrature.weights_table()[[t.azim for t in tracks]])
    equal(tg.fsr_volumes, oracle2d.tracked_volumes(tg))
    angles = tg.segment_angles()
    equal(angles, oracle2d.segment_angles(tg))
    assert angles.dtype == np.int32


@settings(max_examples=15, deadline=None)
@given(
    cells_x=st.sampled_from([2, 4]), cells_y=st.sampled_from([2, 3]),
    domains_x=st.sampled_from([1, 2]), pitch_x=extents, pitch_y=extents,
    bc_x=st.tuples(st.sampled_from(_BCS[:2]), st.sampled_from(_BCS[:2])),
    bc_y=st.tuples(st.sampled_from(_BCS[:2]), st.sampled_from(_BCS[:2])),
    num_azim=azim_counts, spacing=azim_spacings,
)
def test_radial_routes_equal_the_oracle_loops(
    cells_x, cells_y, domains_x, pitch_x, pitch_y, bc_x, bc_y, num_azim, spacing
):
    a, b = make_homogeneous_universe(_A), make_homogeneous_universe(_B)
    rows = [[(a, b)[(i + j) % 2] for i in range(cells_x)] for j in range(cells_y)]
    boundary = {"xmin": bc_x[0], "xmax": bc_x[1], "ymin": bc_y[0], "ymax": bc_y[1]}
    g = Geometry(Lattice(rows, pitch_x, pitch_y), boundary=boundary)
    try:
        solver = DecomposedSolver(
            g, domains_x, cells_y, num_azim=num_azim, azim_spacing=spacing, num_polar=2,
            engine="inproc",
        )
    except TrackingError:
        assume(False)
    trackgens = [d.trackgen for d in solver.domains]
    assert solver.routes
    assert solver.routes == oracle2d.match_interface_tracks(trackgens).routes
