"""Tests for the z-decomposed 3D transport driver."""

import numpy as np
import pytest

from repro.errors import DecompositionError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry, reflector_layer_map
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import infinite_medium_keff
from repro.parallel import ZDecomposedSolver
from repro.solver import MOCSolver


def extruded(material, layers=4, height=4.0, bc_top=BoundaryCondition.REFLECTIVE,
             layer_material=None):
    u = make_homogeneous_universe(material)
    radial = Geometry(Lattice([[u]], 3.0, 2.0))
    return ExtrudedGeometry(
        radial, AxialMesh.uniform(0.0, height, layers),
        layer_material=layer_material,
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=bc_top,
    )


class TestReflectiveExactness:
    @pytest.mark.parametrize("num_domains", [2, 4])
    def test_matches_analytic_k_inf(self, two_group_fissile, num_domains):
        g3 = extruded(two_group_fissile, layers=4)
        solver = ZDecomposedSolver(
            g3, num_domains=num_domains, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.7, num_polar=2,
            keff_tolerance=1e-8, source_tolerance=1e-7, max_iterations=3000,
        )
        result = solver.solve()
        assert result.converged
        assert result.keff == pytest.approx(
            infinite_medium_keff(two_group_fissile), rel=2e-5
        )

    def test_flux_uniform_across_domains(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=4)
        solver = ZDecomposedSolver(
            g3, num_domains=2, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.7, num_polar=2,
            keff_tolerance=1e-8, source_tolerance=1e-7, max_iterations=3000,
        )
        result = solver.solve()
        phi = result.scalar_flux
        for g in range(phi.shape[1]):
            spread = (phi[:, g].max() - phi[:, g].min()) / phi[:, g].mean()
            assert spread < 1e-3


class TestHeterogeneousAgreement:
    def test_close_to_single_domain_3d(self, two_group_fissile, two_group_absorber):
        """Axially heterogeneous, leaking problem: decomposed vs single
        3D solve. Equal slab heights keep the per-slab polar correction
        identical, so agreement is tight."""
        layer_map = reflector_layer_map(two_group_absorber, {2, 3})
        g3 = extruded(
            two_group_fissile, layers=4, height=8.0,
            bc_top=BoundaryCondition.VACUUM, layer_material=layer_map,
        )
        single = MOCSolver.for_3d(
            g3, num_azim=4, azim_spacing=0.7, polar_spacing=0.35, num_polar=2,
            storage="EXP", keff_tolerance=1e-7, source_tolerance=1e-6,
            max_iterations=2000,
        ).solve()
        decomposed = ZDecomposedSolver(
            g3, num_domains=2, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.35, num_polar=2,
            keff_tolerance=1e-7, source_tolerance=1e-6, max_iterations=2000,
        ).solve()
        assert decomposed.converged
        # At moderate polar spacing the slab laydown matches the global
        # one closely enough for near-exact agreement.
        assert decomposed.keff == pytest.approx(single.keff, rel=1e-4)

    def test_materials_assigned_per_slab(self, two_group_fissile, two_group_absorber):
        layer_map = reflector_layer_map(two_group_absorber, {2, 3})
        g3 = extruded(two_group_fissile, layers=4, layer_material=layer_map)
        solver = ZDecomposedSolver(
            g3, num_domains=2, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.7, num_polar=2, max_iterations=5,
        )
        lower_materials = {m.name for m in solver.domains[0].geometry.fsr_materials}
        upper_materials = {m.name for m in solver.domains[1].geometry.fsr_materials}
        assert lower_materials == {two_group_fissile.name}
        assert upper_materials == {two_group_absorber.name}


class TestCommunication:
    def test_interface_traffic_counted(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=4)
        solver = ZDecomposedSolver(
            g3, num_domains=2, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.7, num_polar=2, max_iterations=10,
        )
        result = solver.solve()
        assert len(solver.routes) > 0
        assert result.comm_messages >= len(solver.routes) * result.num_iterations

    def test_routes_target_distinct_slots(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=4)
        solver = ZDecomposedSolver(
            g3, num_domains=4, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.7, num_polar=2, max_iterations=1,
        )
        targets = [(r.dst_domain, r.dst_track, r.dst_dir) for r in solver.routes]
        assert len(set(targets)) == len(targets)

    def test_routes_cross_adjacent_domains_only(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=4)
        solver = ZDecomposedSolver(
            g3, num_domains=4, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.7, num_polar=2, max_iterations=1,
        )
        for route in solver.routes:
            assert abs(route.src_domain - route.dst_domain) == 1


class TestValidation:
    def test_layers_must_divide(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=3)
        with pytest.raises(DecompositionError, match="divide"):
            ZDecomposedSolver(g3, num_domains=2)

    def test_single_domain_allowed(self, two_group_fissile):
        g3 = extruded(two_group_fissile, layers=2)
        solver = ZDecomposedSolver(
            g3, num_domains=1, num_azim=4, azim_spacing=0.7,
            polar_spacing=0.7, num_polar=2, max_iterations=30,
        )
        result = solver.solve()
        assert solver.routes == []
        assert result.keff > 0
