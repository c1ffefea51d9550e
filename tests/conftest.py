"""Shared fixtures: small materials, geometries and tracking products.

Solver-facing fixtures are deliberately tiny (a 7-group C5G7 box or a
2-group synthetic material over a handful of FSRs) so the full suite runs
in minutes; accuracy-focused integration tests live in
``tests/integration`` with their own, slightly larger, setups.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe, make_pin_cell_universe
from repro.materials import Material, c5g7_library
from repro.tracks import TrackGenerator, TrackGenerator3D
from tests.processes import live_children, shm_entries, survivors_after


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current solver output "
        "instead of comparing against them",
    )


@pytest.fixture(scope="session", autouse=True)
def nothing_outlives_the_session():
    """No ``/dev/shm`` segment created during the session remains, and no
    child of this process is alive, when the session ends (DESIGN.md,
    "Fault model"). The program maps no named segment and starts no
    resource tracker, so every child counts."""
    before = shm_entries()
    yield
    leaked = sorted(shm_entries() - before)
    alive = survivors_after(live_children(os.getpid()), grace=2.0)
    assert not leaked and not alive, (
        f"left behind: /dev/shm segments {leaked}, live child pids {alive}"
    )


@pytest.fixture()
def update_goldens(request):
    """Whether this run should regenerate the golden records."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def library():
    return c5g7_library()


@pytest.fixture(scope="session")
def uo2(library):
    return library["UO2"]


@pytest.fixture(scope="session")
def moderator(library):
    return library["Moderator"]


@pytest.fixture(scope="session")
def mox87(library):
    return library["MOX-8.7%"]


@pytest.fixture(scope="session")
def two_group_fissile():
    """A small synthetic 2-group fissile material (fast solves)."""
    return Material(
        "fissile-2g",
        sigma_t=[0.30, 0.80],
        sigma_s=[[0.20, 0.05], [0.00, 0.60]],
        nu_sigma_f=[0.008, 0.25],
        sigma_f=[0.003, 0.10],
        chi=[1.0, 0.0],
    )


@pytest.fixture(scope="session")
def two_group_absorber():
    """A non-fissile 2-group absorber."""
    return Material(
        "absorber-2g",
        sigma_t=[0.40, 1.20],
        sigma_s=[[0.25, 0.05], [0.00, 0.70]],
    )


def make_box_geometry(material, width=4.0, height=3.0, boundary=None, name="box"):
    universe = make_homogeneous_universe(material)
    lattice = Lattice([[universe]], width, height)
    return Geometry(lattice, boundary=boundary, name=name)


@pytest.fixture()
def reflective_box(two_group_fissile):
    return make_box_geometry(two_group_fissile)


@pytest.fixture()
def vacuum_box(two_group_fissile):
    bc = {side: BoundaryCondition.VACUUM for side in ("xmin", "xmax", "ymin", "ymax")}
    return make_box_geometry(two_group_fissile, boundary=bc, name="vacuum-box")


@pytest.fixture()
def pin_cell_geometry(uo2, moderator):
    """A single 1.26 cm pin cell with 2 rings and 4 sectors, reflective."""
    pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
    lattice = Lattice([[pin]], 1.26, 1.26)
    return Geometry(lattice, name="pin-cell")


@pytest.fixture()
def small_trackgen(reflective_box):
    return TrackGenerator(reflective_box, num_azim=8, azim_spacing=0.5, num_polar=4).generate()


@pytest.fixture()
def small_geometry_3d(two_group_fissile):
    radial = make_box_geometry(two_group_fissile, width=3.0, height=2.0)
    return ExtrudedGeometry(
        radial,
        AxialMesh.uniform(0.0, 2.0, 2),
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.REFLECTIVE,
    )


@pytest.fixture()
def small_trackgen_3d(small_geometry_3d):
    return TrackGenerator3D(
        small_geometry_3d,
        num_azim=4,
        azim_spacing=0.8,
        polar_spacing=0.8,
        num_polar=2,
    ).generate()


def assert_close(a, b, rtol=1e-10, atol=1e-12):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)
