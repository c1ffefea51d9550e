"""Tests for CMFD acceleration: switch/settings, coarse-mesh overlay,
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

from repro.errors import ConfigError, SolverError
from repro.geometry import BoundaryCondition, C5G7Spec, Geometry, Lattice, build_c5g7_geometry
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry, reflector_layer_map
from repro.geometry.universe import make_homogeneous_universe, make_pin_cell_universe
from repro.io.config import CmfdConfig, config_from_dict
from repro.materials import infinite_medium_keff
from repro.solver import SourceTerms
from repro.solver.cmfd import (
    CmfdProblem,
    CoarseMesh,
    MeshSpec,
    bin_fsrs,
    bin_fsrs_3d,
    build_coarse_mesh,
    coerce_cmfd,
    mesh_spec_for,
    mesh_spec_for_3d,
)
from repro.solver.solver import MOCSolver


# ------------------------------------------------------------- the switch


class TestSwitch:
    """The switch is the config's ``solver.cmfd.enabled`` alone: none of
    the words ``REPRO_CMFD`` once took changes whether a solve accelerates."""

    def test_explicit_wins_over_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CMFD", "1")
        assert coerce_cmfd(CmfdConfig(enabled=False)) is None
        monkeypatch.setenv("REPRO_CMFD", "0")
        assert coerce_cmfd(CmfdConfig(enabled=True)) == CmfdConfig(enabled=True)

    def test_unset_environment_means_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CMFD", raising=False)
        assert coerce_cmfd(config_from_dict({}).solver.cmfd) is None

    @pytest.mark.parametrize("word", ["1", "true", "YES", " on "])
    def test_true_words(self, monkeypatch, word):
        monkeypatch.setenv("REPRO_CMFD", word)
        assert coerce_cmfd(config_from_dict({}).solver.cmfd) is None

    @pytest.mark.parametrize("word", ["0", "false", "No", "off"])
    def test_false_words(self, monkeypatch, word):
        monkeypatch.setenv("REPRO_CMFD", word)
        cmfd = config_from_dict({"solver": {"cmfd": True}}).solver.cmfd
        assert coerce_cmfd(cmfd) is cmfd


class TestOptions:
    def test_defaults_validate(self):
        CmfdConfig().validate()

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
        with pytest.raises(ConfigError):
            CmfdConfig(**kwargs).validate()

    def test_coerce_off(self):
        assert coerce_cmfd(None) is None
        assert coerce_cmfd(False) is None
        assert coerce_cmfd(CmfdConfig(mesh_x=3)) is None

    def test_coerce_true_gives_defaults(self):
        assert coerce_cmfd(True) == CmfdConfig(enabled=True)

    def test_coerce_passes_options_through(self):
        options = CmfdConfig(enabled=True, mesh_x=3, relaxation=0.7)
        assert coerce_cmfd(options) is options

    def test_coerce_duck_typed_config(self):
        """Only the config type carries CMFD settings; a look-alike is
        refused instead of being read field by field with defaults."""

        class Block:
            enabled = True
            mesh_x = 5

        with pytest.raises(SolverError, match="CmfdConfig"):
            coerce_cmfd(Block())

    def test_coerce_validates(self):
        with pytest.raises(ConfigError, match="relaxation"):
            coerce_cmfd(CmfdConfig(enabled=True, relaxation=2.0))


# ----------------------------------------------------- coarse-mesh overlay


class TestMeshOverlay:
    def test_default_mesh_is_one_cell_per_root_lattice_cell(self, uo2, moderator):
        pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
        geometry = Geometry(Lattice([[pin, pin], [pin, pin]], 1.26, 1.26))
        spec = mesh_spec_for(geometry, CmfdConfig())
        assert (spec.nx, spec.ny, spec.nz) == (2, 2, 1)
        assert spec.hx == pytest.approx(1.26)
        assert spec.hy == pytest.approx(1.26)

    def test_configured_mesh_overrides_default(self, reflective_box):
        spec = mesh_spec_for(reflective_box, CmfdConfig(mesh_x=4, mesh_y=3))
        assert (spec.nx, spec.ny) == (4, 3)
        assert spec.hx == pytest.approx(reflective_box.width / 4)

    def test_binning_respects_pin_boundaries(self, uo2, moderator):
        """Every FSR of a pin universe lands in that pin's coarse cell, so
        the four pins of a 2x2 lattice split the FSRs evenly."""
        pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
        geometry = Geometry(Lattice([[pin, pin], [pin, pin]], 1.26, 1.26))
        spec = mesh_spec_for(geometry, CmfdConfig())
        mesh = build_coarse_mesh(spec, [bin_fsrs(geometry, spec)])
        assert mesh.num_cells == 4
        assert mesh.cellmap.shape == (geometry.num_fsrs,)
        counts = np.bincount(mesh.cellmap, minlength=4)
        assert (counts == geometry.num_fsrs // 4).all()

    def test_universe_rooted_geometry_collapses_to_one_cell(self, reflective_box):
        spec = mesh_spec_for(reflective_box, CmfdConfig())
        mesh = build_coarse_mesh(spec, [bin_fsrs(reflective_box, spec)])
        assert mesh.num_cells == 1
        assert (mesh.cellmap == 0).all()

    def test_3d_spec_takes_axial_mesh_edges(self, reflective_box):
        g3 = ExtrudedGeometry(reflective_box, AxialMesh.uniform(0.0, 4.0, 4))
        spec = mesh_spec_for_3d(g3, CmfdConfig())
        assert spec.nz == 4
        assert spec.z_edges == pytest.approx((0.0, 1.0, 2.0, 3.0, 4.0))

    def test_3d_spec_mesh_z_overrides(self, reflective_box):
        g3 = ExtrudedGeometry(reflective_box, AxialMesh.uniform(0.0, 4.0, 4))
        spec = mesh_spec_for_3d(g3, CmfdConfig(mesh_z=2))
        assert spec.nz == 2
        assert spec.z_edges == pytest.approx((0.0, 2.0, 4.0))

    def test_3d_binning_is_radial_major(self, reflective_box):
        """fsr3d ordering is radial-major: FSR r, layer l -> r * L + l."""
        g3 = ExtrudedGeometry(reflective_box, AxialMesh.uniform(0.0, 4.0, 4))
        spec = mesh_spec_for_3d(g3, CmfdConfig())
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
            terms.chi, np.ones(2), CmfdConfig(),
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
                terms.chi, np.ones(1), CmfdConfig(),
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


# ---------------------------------------- the paper's own core, coarsened

#: Plain power iteration's fixed point on the 9-pin quarter core below,
#: stopped at ``keff_tolerance 1e-8`` / ``source_tolerance 1e-7`` (566
#: iterations). CMFD at ``relaxation 0.25`` converges to 1.0278780.
PLAIN_FIXED_POINT_9_PIN = 1.0278714

#: How far a converged accelerated solve at ``keff_tolerance 1e-5`` may sit
#: from that fixed point.
FIXED_POINT_BAND = 5e-5


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: the default CMFD block (one coarse cell per "
    "assembly, relaxation 0.5) does not converge at 9 pins per assembly",
)
def test_default_block_converges_on_a_9_pin_quarter_core(library):
    """The C5G7 quarter core at 9 pins per assembly (693 FSRs) with the
    default ``cmfd: true`` block converges to the plain fixed point.

    Today it ends unconverged at k = 0.94347 after 200 iterations. The
    reference regenerates with::

        PYTHONPATH=src python -c "from repro import MOCSolver, c5g7_library; \\
        from repro.geometry import C5G7Spec, build_c5g7_geometry; \\
        g = build_c5g7_geometry(c5g7_library(), C5G7Spec(9, reflector_refinement=3)); \\
        print(MOCSolver.for_2d(g, num_azim=8, azim_spacing=0.3, num_polar=2, \\
        keff_tolerance=1e-8, source_tolerance=1e-7, max_iterations=3000).solve().keff)"
    """
    geometry = build_c5g7_geometry(
        library, C5G7Spec(pins_per_assembly=9, reflector_refinement=3)
    )
    result = MOCSolver.for_2d(
        geometry, num_azim=8, azim_spacing=0.3, num_polar=2,
        keff_tolerance=1e-5, source_tolerance=1e-4, max_iterations=200, cmfd=True,
    ).solve()
    assert result.converged
    assert abs(result.keff - PLAIN_FIXED_POINT_9_PIN) <= FIXED_POINT_BAND
