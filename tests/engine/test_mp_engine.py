"""Behavioural tests of the multiprocess engine (arena tests: test_shm.py)."""

import multiprocessing
import os
import signal

import pytest

from repro.engine import MpEngine, DecomposedProblem
from repro.errors import CommunicationError, SolverError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel import DecomposedSolver

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="mp engine requires the fork start method",
)


@pytest.fixture()
def grid_2x1(two_group_fissile):
    u = make_homogeneous_universe(two_group_fissile)
    return Geometry(Lattice([[u, u]], 1.5, 1.5))


class TestMpMechanics:
    def test_communicator_size_validated(self):
        with pytest.raises(CommunicationError):
            MpEngine().create_communicator(0)

    @needs_fork
    def test_single_domain_no_routes(self, two_group_fissile):
        """One domain, empty route table: the degenerate halo still works."""
        u = make_homogeneous_universe(two_group_fissile)
        geometry = Geometry(Lattice([[u]], 1.5, 1.5))
        solver = DecomposedSolver(
            geometry, 1, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=15, engine="mp",
        )
        assert solver.exchange.num_routes == 0
        result = solver.solve()
        assert result.num_workers == 1
        assert result.keff > 0

    @needs_fork
    def test_worker_timers_collected(self, grid_2x1):
        solver = DecomposedSolver(
            grid_2x1, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=8, engine="mp", workers=2,
        )
        result = solver.solve()
        assert [wid for wid, _ in result.worker_timers] == [0, 1]
        for _wid, payload in result.worker_timers:
            assert set(payload) == {"worker_sweep", "worker_exchange"}
            assert payload["worker_sweep"] > 0.0

    @needs_fork
    def test_worker_exception_surfaces_as_solver_error(self, grid_2x1):
        """A sweep crash in a forked worker must reach the parent as a
        SolverError carrying the worker traceback, not a hang."""

        class ExplodingProblem(DecomposedProblem):
            def sweep_domain(self, d, phi_block, keff):
                if d == 1:
                    raise RuntimeError("injected sweep failure")
                return super().sweep_domain(d, phi_block, keff)

        solver = DecomposedSolver(
            grid_2x1, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=5, engine="mp",
        )
        engine = MpEngine(workers=2, timeout=30.0)
        with pytest.raises(SolverError, match="injected sweep failure"):
            engine.solve(ExplodingProblem(solver), engine.create_communicator(2))

    @needs_fork
    def test_traceback_ordered_before_barrier_noise(self, grid_2x1):
        """When one worker raises, its siblings' barriers break too; the
        original traceback must lead the report, not the teardown noise."""

        class ExplodingProblem(DecomposedProblem):
            def sweep_domain(self, d, phi_block, keff):
                if d == 1:
                    raise RuntimeError("injected sweep failure")
                return super().sweep_domain(d, phi_block, keff)

        solver = DecomposedSolver(
            grid_2x1, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=5, engine="mp",
        )
        engine = MpEngine(workers=2, timeout=30.0)
        with pytest.raises(SolverError) as excinfo:
            engine.solve(ExplodingProblem(solver), engine.create_communicator(2))
        text = str(excinfo.value)
        cause = text.index("injected sweep failure")
        if "BrokenBarrierError" in text:
            assert cause < text.index("BrokenBarrierError")

    @needs_fork
    def test_killed_worker_identified_promptly(self, grid_2x1):
        """A worker killed mid-epoch (SIGKILL: no exception, no queue
        message) must surface as a SolverError naming the dead worker and
        its signal — within the configured timeout, not a hang."""

        class SuicidalProblem(DecomposedProblem):
            def sweep_domain(self, d, phi_block, keff):
                if d == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().sweep_domain(d, phi_block, keff)

        solver = DecomposedSolver(
            grid_2x1, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=5, engine="mp",
        )
        engine = MpEngine(workers=2, timeout=5.0)
        with pytest.raises(SolverError, match=r"worker 1 died .*SIGKILL"):
            engine.solve(SuicidalProblem(solver), engine.create_communicator(2))

    def test_fork_requirement_reported(self, grid_2x1, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        solver = DecomposedSolver(
            grid_2x1, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=2, engine="mp",
        )
        with pytest.raises(SolverError, match="fork"):
            solver.solve()
