"""Tests for CMFD acceleration: switch/options, coarse-mesh overlay,
coarse-problem exactness, and the measured sweep-count reduction.

The acceleration tests pin the tentpole claim: the CMFD-accelerated
power iteration converges in at most a third of the transport sweeps on
both a leaky 2D lattice and an axially reflected 3D stack. Iteration
counts are deterministic (the sweeps are bitwise reproducible), so the 3x
floor is a hard assertion, not a benchmark. That it is the *same*
eigenvalue is the agreement test at the end: the on/off gap must shrink
in proportion to the convergence tolerance.
"""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry, reflector_layer_map
from repro.geometry.universe import make_homogeneous_universe, make_pin_cell_universe
from repro.materials import infinite_medium_keff
from repro.solver import SourceTerms
from repro.solver.cmfd import (
    CMFD_ENV_VAR,
    CmfdOptions,
    CmfdProblem,
    CoarseMesh,
    MeshSpec,
    bin_fsrs,
    bin_fsrs_3d,
    build_coarse_mesh,
    coerce_cmfd,
    mesh_spec_for,
    mesh_spec_for_3d,
    resolve_cmfd_enabled,
)
from repro.solver.solver import MOCSolver


# ------------------------------------------------------------- the switch


class TestSwitch:
    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv(CMFD_ENV_VAR, "1")
        assert resolve_cmfd_enabled(False) is False
        monkeypatch.setenv(CMFD_ENV_VAR, "0")
        assert resolve_cmfd_enabled(True) is True

    def test_unset_environment_means_off(self, monkeypatch):
        monkeypatch.delenv(CMFD_ENV_VAR, raising=False)
        assert resolve_cmfd_enabled(None) is False

    @pytest.mark.parametrize("word", ["1", "true", "YES", " on "])
    def test_true_words(self, monkeypatch, word):
        monkeypatch.setenv(CMFD_ENV_VAR, word)
        assert resolve_cmfd_enabled(None) is True

    @pytest.mark.parametrize("word", ["0", "false", "No", "off"])
    def test_false_words(self, monkeypatch, word):
        monkeypatch.setenv(CMFD_ENV_VAR, word)
        assert resolve_cmfd_enabled(None) is False

    def test_garbage_environment_rejected(self, monkeypatch):
        monkeypatch.setenv(CMFD_ENV_VAR, "maybe")
        with pytest.raises(SolverError):
            resolve_cmfd_enabled(None)


class TestOptions:
    def test_defaults_validate(self):
        CmfdOptions().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mesh_x": -1},
            {"tolerance": 0.0},
            {"tolerance": -1e-9},
            {"max_inner_iterations": 0},
            {"relaxation": 0.0},
            {"relaxation": 1.5},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(SolverError):
            CmfdOptions(**kwargs).validate()

    def test_coerce_off(self):
        assert coerce_cmfd(None) is None
        assert coerce_cmfd(False) is None

    def test_coerce_true_gives_defaults(self):
        assert coerce_cmfd(True) == CmfdOptions()

    def test_coerce_passes_options_through(self):
        options = CmfdOptions(mesh_x=3, relaxation=0.7)
        assert coerce_cmfd(options) is options

    def test_coerce_duck_typed_config(self):
        class Block:
            mesh_x = 5
            mesh_y = 2
            tolerance = 1e-10

        options = coerce_cmfd(Block())
        assert options == CmfdOptions(mesh_x=5, mesh_y=2, tolerance=1e-10)

    def test_coerce_validates(self):
        class Block:
            relaxation = 2.0

        with pytest.raises(SolverError):
            coerce_cmfd(Block())


# ----------------------------------------------------- coarse-mesh overlay


class TestMeshOverlay:
    def test_default_mesh_is_one_cell_per_root_lattice_cell(self, uo2, moderator):
        pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
        geometry = Geometry(Lattice([[pin, pin], [pin, pin]], 1.26, 1.26))
        spec = mesh_spec_for(geometry, CmfdOptions())
        assert (spec.nx, spec.ny, spec.nz) == (2, 2, 1)
        assert spec.hx == pytest.approx(1.26)
        assert spec.hy == pytest.approx(1.26)

    def test_configured_mesh_overrides_default(self, reflective_box):
        spec = mesh_spec_for(reflective_box, CmfdOptions(mesh_x=4, mesh_y=3))
        assert (spec.nx, spec.ny) == (4, 3)
        assert spec.hx == pytest.approx(reflective_box.width / 4)

    def test_binning_respects_pin_boundaries(self, uo2, moderator):
        """Every FSR of a pin universe lands in that pin's coarse cell, so
        the four pins of a 2x2 lattice split the FSRs evenly."""
        pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
        geometry = Geometry(Lattice([[pin, pin], [pin, pin]], 1.26, 1.26))
        spec = mesh_spec_for(geometry, CmfdOptions())
        mesh = build_coarse_mesh(spec, [bin_fsrs(geometry, spec)])
        assert mesh.num_cells == 4
        assert mesh.cellmap.shape == (geometry.num_fsrs,)
        counts = np.bincount(mesh.cellmap, minlength=4)
        assert (counts == geometry.num_fsrs // 4).all()

    def test_universe_rooted_geometry_collapses_to_one_cell(self, reflective_box):
        spec = mesh_spec_for(reflective_box, CmfdOptions())
        mesh = build_coarse_mesh(spec, [bin_fsrs(reflective_box, spec)])
        assert mesh.num_cells == 1
        assert (mesh.cellmap == 0).all()

    def test_3d_spec_takes_axial_mesh_edges(self, reflective_box):
        g3 = ExtrudedGeometry(reflective_box, AxialMesh.uniform(0.0, 4.0, 4))
        spec = mesh_spec_for_3d(g3, CmfdOptions())
        assert spec.nz == 4
        assert spec.z_edges == pytest.approx((0.0, 1.0, 2.0, 3.0, 4.0))

    def test_3d_spec_mesh_z_overrides(self, reflective_box):
        g3 = ExtrudedGeometry(reflective_box, AxialMesh.uniform(0.0, 4.0, 4))
        spec = mesh_spec_for_3d(g3, CmfdOptions(mesh_z=2))
        assert spec.nz == 2
        assert spec.z_edges == pytest.approx((0.0, 2.0, 4.0))

    def test_3d_binning_is_radial_major(self, reflective_box):
        """fsr3d ordering is radial-major: FSR r, layer l -> r * L + l."""
        g3 = ExtrudedGeometry(reflective_box, AxialMesh.uniform(0.0, 4.0, 4))
        spec = mesh_spec_for_3d(g3, CmfdOptions())
        raw = bin_fsrs_3d(g3, spec)
        layers = g3.axial_mesh.num_layers
        assert raw.shape == (reflective_box.num_fsrs * layers,)
        # One radial root cell: the raw bin is simply the z-index.
        assert (raw.reshape(reflective_box.num_fsrs, layers)
                == np.arange(layers)).all()

    def test_coarse_mesh_widths_carry_layer_heights(self):
        spec = MeshSpec(x0=0.0, y0=0.0, hx=2.0, hy=3.0, nx=1, ny=1,
                        z_edges=(0.0, 1.0, 3.0))
        mesh = CoarseMesh(spec, np.array([0, 1], dtype=np.int64))
        assert mesh.num_cells == 2
        np.testing.assert_allclose(mesh.widths[:, 0], 2.0)
        np.testing.assert_allclose(mesh.widths[:, 1], 3.0)
        np.testing.assert_allclose(mesh.widths[:, 2], [1.0, 2.0])


# ------------------------------------------------------ the coarse problem


class TestCoarseProblem:
    def test_single_cell_reproduces_infinite_medium_keff(self, two_group_fissile):
        """With one coarse cell and zero net currents the coarse operator
        is exactly the infinite-medium balance, so the dense eigensolve
        must return the analytic k-infinity."""
        terms = SourceTerms([two_group_fissile, two_group_fissile])
        spec = MeshSpec(x0=0.0, y0=0.0, hx=4.0, hy=3.0, nx=1, ny=1)
        mesh = CoarseMesh(spec, np.zeros(2, dtype=np.int64))
        problem = CmfdProblem(
            mesh, terms.sigma_t, terms.sigma_s, terms.nu_sigma_f,
            terms.chi, np.ones(2), CmfdOptions(),
        )
        problem.finalize_pairs([np.zeros((0, 2), dtype=np.int64)])
        step = problem.solve(
            np.ones((2, terms.num_groups)), np.zeros((0, terms.num_groups)), 1.0
        )
        assert not step.skipped
        assert step.keff == pytest.approx(
            infinite_medium_keff(two_group_fissile), rel=1e-10
        )
        assert np.isfinite(step.factors).all()
        assert (step.factors > 0.0).all()

    def test_shape_validation(self, two_group_fissile):
        terms = SourceTerms([two_group_fissile])
        spec = MeshSpec(x0=0.0, y0=0.0, hx=1.0, hy=1.0, nx=1, ny=1)
        mesh = CoarseMesh(spec, np.zeros(2, dtype=np.int64))
        with pytest.raises(SolverError):
            CmfdProblem(
                mesh, terms.sigma_t, terms.sigma_s, terms.nu_sigma_f,
                terms.chi, np.ones(1), CmfdOptions(),
            )


# ------------------------------------------------- measured acceleration


def leaky_pin_lattice(library):
    """A 5x5 water-reflected fuel island with vacuum boundaries — leaky
    enough that the unaccelerated power iteration crawls (dominance ratio
    close to one)."""
    pin = make_pin_cell_universe(
        0.54, library["UO2"], library["Moderator"], num_rings=2, num_sectors=4
    )
    water = make_homogeneous_universe(library["Moderator"])
    row_w = [water] * 5
    row_f = [water, pin, pin, pin, water]
    bc = {s: BoundaryCondition.VACUUM for s in ("xmin", "xmax", "ymin", "ymax")}
    return Geometry(
        Lattice([row_w, row_f, row_f, row_f, row_w], 1.26, 1.26),
        boundary=bc, name="pins-5x5",
    )


def reflected_stack(two_group_fissile, two_group_absorber):
    """An axially reflected 2-group fuel stack leaking through the top."""
    u = make_homogeneous_universe(two_group_fissile)
    radial = Geometry(Lattice([[u]], 3.0, 2.0))
    return ExtrudedGeometry(
        radial, AxialMesh.uniform(0.0, 16.0, 8),
        layer_material=reflector_layer_map(two_group_absorber, {6, 7}),
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.VACUUM,
    )


class TestAcceleration2D:
    def test_third_of_the_sweeps_same_keff(self, library):
        geometry = leaky_pin_lattice(library)

        def solve(cmfd):
            solver = MOCSolver.for_2d(
                geometry, num_azim=4, azim_spacing=0.4, num_polar=2,
                keff_tolerance=1e-7, source_tolerance=1e-6,
                max_iterations=900, cmfd=cmfd,
            )
            return solver.solve()

        plain = solve(None)
        fast = solve(True)
        assert plain.converged and fast.converged
        assert 3 * fast.num_iterations <= plain.num_iterations

    def test_stats_surface_on_the_result(self, library):
        geometry = leaky_pin_lattice(library)
        solver = MOCSolver.for_2d(
            geometry, num_azim=4, azim_spacing=0.4, num_polar=2,
            keff_tolerance=1e-7, source_tolerance=1e-6,
            max_iterations=900, cmfd=True,
        )
        result = solver.solve()
        stats = result.cmfd_stats
        assert stats["cmfd_solves"] == result.num_iterations
        assert stats["cmfd_iterations"] > 0
        assert stats["cmfd_seconds"] >= 0.0

    def test_stats_empty_when_off(self, library):
        geometry = leaky_pin_lattice(library)
        solver = MOCSolver.for_2d(
            geometry, num_azim=4, azim_spacing=0.4, num_polar=2,
            keff_tolerance=1e-7, source_tolerance=1e-6, max_iterations=900,
        )
        assert solver.solve().cmfd_stats == {}


class TestAcceleration3D:
    def test_third_of_the_sweeps_same_keff(self, two_group_fissile, two_group_absorber):
        g3 = reflected_stack(two_group_fissile, two_group_absorber)

        def solve(cmfd):
            solver = MOCSolver.for_3d(
                g3, num_azim=4, azim_spacing=0.7, polar_spacing=0.7,
                num_polar=2, keff_tolerance=1e-7, source_tolerance=1e-6,
                max_iterations=900, cmfd=cmfd,
            )
            return solver.solve()

        plain = solve(None)
        fast = solve(True)
        assert plain.converged and fast.converged
        assert 3 * fast.num_iterations <= plain.num_iterations

    @pytest.mark.parametrize("storage", ["OTF", "MANAGER"])
    def test_acceleration_survives_storage_strategies(
        self, two_group_fissile, two_group_absorber, storage
    ):
        """OTF/Manager regenerate segments per sweep; the tally laid out
        once over the plan must keep the accelerated solve on EXP's bits."""
        g3 = reflected_stack(two_group_fissile, two_group_absorber)
        solver = MOCSolver.for_3d(
            g3, num_azim=4, azim_spacing=0.7, polar_spacing=0.7,
            num_polar=2, keff_tolerance=1e-7, source_tolerance=1e-6,
            max_iterations=900, storage=storage, cmfd=True,
        )
        reference = MOCSolver.for_3d(
            g3, num_azim=4, azim_spacing=0.7, polar_spacing=0.7,
            num_polar=2, keff_tolerance=1e-7, source_tolerance=1e-6,
            max_iterations=900, cmfd=True,
        ).solve()
        result = solver.solve()
        assert result.converged
        assert result.keff == reference.keff
        assert result.num_iterations == reference.num_iterations


# ------------------------------------------- on/off agreement vs tolerance

#: Bound on ``|k_cmfd - k_plain| / keff_tolerance`` (source tolerance 10x).
#: First measurement: 7.6 (1e-5) and 7.4 (1e-7) on the 2D lattice, 5.7 and
#: 5.0 on the 3D stack — both solves stop within a fixed multiple of the
#: tolerance of the same eigenvalue, so the gap shrinks with it.
AGREEMENT_C = 10.0


@pytest.mark.parametrize("tolerance", [1e-5, 1e-7])
@pytest.mark.parametrize("dims", ["2d", "3d"])
def test_on_off_agreement_scales_with_tolerance(
    dims, tolerance, library, two_group_fissile, two_group_absorber
):
    def solve(cmfd):
        limits = dict(
            keff_tolerance=tolerance, source_tolerance=10 * tolerance,
            max_iterations=3000, cmfd=cmfd,
        )
        if dims == "2d":
            return MOCSolver.for_2d(
                leaky_pin_lattice(library), num_azim=4, azim_spacing=0.4,
                num_polar=2, **limits,
            ).solve()
        return MOCSolver.for_3d(
            reflected_stack(two_group_fissile, two_group_absorber), num_azim=4,
            azim_spacing=0.7, polar_spacing=0.7, num_polar=2, **limits,
        ).solve()

    plain, fast = solve(None), solve(True)
    assert plain.converged and fast.converged
    assert abs(fast.keff - plain.keff) <= AGREEMENT_C * tolerance
