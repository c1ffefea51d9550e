"""Integration: spatially decomposed vs single-domain solutions."""

import numpy as np
import pytest

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import infinite_medium_keff
from repro.parallel.driver import DecomposedSolver
from repro.solver import MOCSolver


class TestHomogeneousAgreement:
    @pytest.mark.parametrize("grid", [(2, 1), (1, 2), (2, 2)])
    def test_reflective_homogeneous_exact(self, two_group_fissile, grid):
        """Infinite-medium answers are tracking-independent, so every
        decomposition must match the analytic k_inf."""
        u = make_homogeneous_universe(two_group_fissile)
        g = Geometry(Lattice([[u, u], [u, u]], 1.5, 1.5))
        solver = DecomposedSolver(
            g, grid[0], grid[1], num_azim=4, azim_spacing=0.6, num_polar=2,
            keff_tolerance=1e-8, source_tolerance=1e-7, max_iterations=2500,
        )
        result = solver.solve()
        assert result.keff == pytest.approx(
            infinite_medium_keff(two_group_fissile), rel=2e-5
        )


class TestHeterogeneousAgreement:
    @pytest.fixture(scope="class")
    def problem(self, library):
        fuel = make_homogeneous_universe(library["UO2"])
        water = make_homogeneous_universe(library["Moderator"])
        rows = [[fuel, water, fuel, water],
                [water, fuel, water, fuel]]
        boundary = {"xmax": BoundaryCondition.VACUUM}
        return Geometry(Lattice(rows, 1.0, 1.0), boundary=boundary)

    def test_keff_close(self, problem):
        single = MOCSolver.for_2d(
            problem, num_azim=4, azim_spacing=0.25, num_polar=2,
            keff_tolerance=1e-6, source_tolerance=1e-5, max_iterations=1500,
        ).solve()
        decomposed = DecomposedSolver(
            problem, 2, 1, num_azim=4, azim_spacing=0.25, num_polar=2,
            keff_tolerance=1e-6, source_tolerance=1e-5, max_iterations=1500,
        ).solve()
        # different laydown per domain: small discretisation shift allowed
        assert decomposed.keff == pytest.approx(single.keff, rel=0.02)

    def test_normalized_fission_rates_close(self, problem):
        """Paper Sec. 2.1: 'the normalized fission rates are usually the
        same' with and without decomposition."""
        single_solver = MOCSolver.for_2d(
            problem, num_azim=4, azim_spacing=0.25, num_polar=2,
            keff_tolerance=1e-6, source_tolerance=1e-5, max_iterations=1500,
        )
        single = single_solver.solve()
        rates_single = single_solver.fission_rates(single)

        dec_solver = DecomposedSolver(
            problem, 2, 1, num_azim=4, azim_spacing=0.25, num_polar=2,
            keff_tolerance=1e-6, source_tolerance=1e-5, max_iterations=1500,
        )
        dec = dec_solver.solve()
        rates_dec = dec_solver.fission_rates(dec)

        # FSR enumeration order matches: decomposition cuts along x and
        # sub-geometries enumerate in the same lattice order per domain.
        fissile_single = rates_single[rates_single > 0]
        fissile_dec = rates_dec[rates_dec > 0]
        assert fissile_single.size == fissile_dec.size
        np.testing.assert_allclose(
            np.sort(fissile_single), np.sort(fissile_dec), rtol=0.05
        )
