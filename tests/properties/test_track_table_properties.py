"""The column laydown against the per-object loops it replaced, bitwise.

``tests/tracks/stack3d_oracle.py`` keeps the parent's object-building
loops verbatim; every :class:`TrackTable3D` column, the 3D sweep topology
and the z-interface routes must equal what those loops produce — values,
order and all.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.errors import TrackingError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import Material
from repro.parallel import ZDecomposedSolver
from repro.solver.backends.plan import TrackTopology
from repro.tracks import TrackGenerator3D
from tests.tracks import stack3d_oracle as oracle

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
    want = TrackTopology.from_tracks(tracks, topology.weights, None)
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
