"""Tests for the decomposed transport driver."""

import math
import multiprocessing

import numpy as np
import pytest

from repro.errors import DecompositionError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.materials import infinite_medium_keff
from repro.parallel.driver import DecomposedSolver


@pytest.fixture()
def reflective_grid(two_group_fissile):
    u = make_homogeneous_universe(two_group_fissile)
    return Geometry(Lattice([[u, u], [u, u]], 1.5, 1.5))


class TestDecomposedSolver:
    def test_matches_analytic_k_inf(self, reflective_grid, two_group_fissile):
        solver = DecomposedSolver(
            reflective_grid, 2, 2, num_azim=4, azim_spacing=0.5, num_polar=2,
            keff_tolerance=1e-8, source_tolerance=1e-7, max_iterations=2500,
        )
        result = solver.solve()
        assert result.converged
        assert result.keff == pytest.approx(
            infinite_medium_keff(two_group_fissile), rel=1e-5
        )

    def test_matches_single_domain_solve(self, reflective_grid):
        from repro.solver import MOCSolver

        single = MOCSolver.for_2d(
            reflective_grid, num_azim=4, azim_spacing=0.5, num_polar=2,
            keff_tolerance=1e-7, source_tolerance=1e-6, max_iterations=2000,
        ).solve()
        decomposed = DecomposedSolver(
            reflective_grid, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            keff_tolerance=1e-7, source_tolerance=1e-6, max_iterations=2000,
        ).solve()
        assert decomposed.keff == pytest.approx(single.keff, abs=5e-5)

    def test_communication_happened(self, reflective_grid):
        solver = DecomposedSolver(
            reflective_grid, 2, 2, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=10,
        )
        result = solver.solve()
        assert result.comm_messages > 0
        assert result.comm_bytes > 0

    def test_comm_traffic_scales_with_eq7(self, reflective_grid, two_group_fissile):
        """Per iteration, boundary-flux traffic equals
        routes x (polar / 2) x groups x 8 bytes (float64 in the host-side
        simulation; the paper's Eq. 7 uses float32 on device), and the
        rest is ``SimComm.allreduce``'s recursive-doubling model — on the
        simulated and the process engine alike."""
        num_polar, groups = 2, two_group_fissile.num_groups
        engines = ["inproc"]
        if "fork" in multiprocessing.get_all_start_methods():
            engines.append("mp")
        for engine in engines:
            solver = DecomposedSolver(
                reflective_grid, 2, 1, num_azim=4, azim_spacing=0.5,
                num_polar=num_polar, max_iterations=3, engine=engine,
            )
            result = solver.solve()
            stats, size = solver.comm.stats, len(solver.domains)
            # One production allreduce to start, then one per iteration,
            # each log2(size) rounds of one 8-byte message per rank.
            assert stats.allreduce_calls == result.num_iterations + 1, engine
            collective_messages = stats.allreduce_calls * size * int(math.log2(size))
            # One message per route per iteration.
            halo_messages = len(solver.routes) * result.num_iterations
            halo = halo_messages * (num_polar // 2) * groups * 8
            assert stats.messages_sent == halo_messages + collective_messages, engine
            assert sum(stats.per_pair_bytes.values()) == halo + collective_messages * 8, engine

    def test_global_volumes_match(self, reflective_grid):
        solver = DecomposedSolver(reflective_grid, 2, 2, num_azim=4,
                                  azim_spacing=0.5, num_polar=2)
        assert solver.volumes.sum() == pytest.approx(3.0 * 3.0, rel=1e-9)

    def test_fission_rates_cover_all_domains(self, reflective_grid):
        solver = DecomposedSolver(
            reflective_grid, 2, 2, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=50,
        )
        result = solver.solve()
        rates = solver.fission_rates(result)
        assert rates.shape == (solver.num_fsrs_total,)
        assert (rates > 0).all()  # homogeneous fissile everywhere

    def test_non_fissile_rejected(self, moderator):
        u = make_homogeneous_universe(moderator)
        g = Geometry(Lattice([[u, u]], 1.0, 1.0))
        from repro.errors import SolverError

        with pytest.raises(SolverError):
            DecomposedSolver(g, 2, 1, num_azim=4, azim_spacing=0.5)

    def test_invalid_grid_rejected(self, reflective_grid):
        with pytest.raises(DecompositionError):
            DecomposedSolver(reflective_grid, 3, 1, num_azim=4, azim_spacing=0.5)
