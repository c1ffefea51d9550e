"""Integration: the three storage strategies are numerically identical.

EXP, OTF and the Manager differ only in *when* 3D segments are generated,
never in their values — so converged eigenvalues and fluxes must match to
floating-point reproduction, not merely to tolerance.
"""

import numpy as np
import pytest

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.solver import MOCSolver


@pytest.fixture(scope="module")
def hetero_geometry_3d():
    from repro.materials import c5g7_library

    lib = c5g7_library()
    fuel = make_homogeneous_universe(lib["UO2"])
    water = make_homogeneous_universe(lib["Moderator"])
    radial = Geometry(Lattice([[fuel, water], [water, fuel]], 1.2, 1.2))
    return ExtrudedGeometry(
        radial, AxialMesh.uniform(0.0, 1.5, 2),
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.REFLECTIVE,
    )


def solve(geometry3d, storage, budget=None):
    solver = MOCSolver.for_3d(
        geometry3d, num_azim=4, azim_spacing=0.6, polar_spacing=0.6, num_polar=2,
        storage=storage, resident_memory_bytes=budget,
        keff_tolerance=1e-7, source_tolerance=1e-6, max_iterations=60,
    )
    return solver, solver.solve()


class TestStorageEquivalence:
    def test_all_strategies_bitwise_consistent(self, hetero_geometry_3d):
        _, exp = solve(hetero_geometry_3d, "EXP")
        _, otf = solve(hetero_geometry_3d, "OTF")
        _, mgr = solve(hetero_geometry_3d, "MANAGER", budget=800)
        assert exp.keff == pytest.approx(otf.keff, abs=1e-13)
        assert exp.keff == pytest.approx(mgr.keff, abs=1e-13)
        np.testing.assert_allclose(exp.scalar_flux, otf.scalar_flux, rtol=1e-12)
        np.testing.assert_allclose(exp.scalar_flux, mgr.scalar_flux, rtol=1e-12)

    def test_manager_actually_split(self, hetero_geometry_3d):
        solver, _ = solve(hetero_geometry_3d, "MANAGER", budget=800)
        strategy = solver.storage_strategy
        assert strategy.num_resident > 0
        assert strategy.num_temporary > 0
        assert strategy.regenerated_tracks_total > 0

    def test_manager_counts_sweeps_only(self, hetero_geometry_3d):
        """The volume reference pass at build serves no sweep: after a
        solve the counter is exactly sweeps x temporaries."""
        solver, result = solve(hetero_geometry_3d, "MANAGER", budget=800)
        strategy = solver.storage_strategy
        assert strategy.sweeps_served == result.num_iterations
        assert strategy.regenerated_tracks_total == (
            result.num_iterations * strategy.num_temporary
        )
        strategy.reference_segments()
        assert strategy.regenerated_tracks_total == (
            result.num_iterations * strategy.num_temporary
        )

    def test_otf_regenerated_everything(self, hetero_geometry_3d):
        solver, result = solve(hetero_geometry_3d, "OTF")
        strategy = solver.storage_strategy
        # one regeneration per track per sweep; the volume reference pass
        # serves no sweep and is not counted
        assert strategy.regenerated_tracks_total == (
            result.num_iterations * solver.trackgen.num_tracks_3d
        )
