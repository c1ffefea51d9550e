"""Behavioural tests of the dependency-driven async mailbox engine.

Bitwise equivalence against ``inproc`` lives in ``test_equivalence.py``
(the async engine is parametrized into every configuration there); this
file pins the machinery that is *specific* to the mailbox protocol: the
directed-edge route grouping, the engine-side communication counters, the
early-convergence HALT handshake, degenerate single-domain runs, CPU
pinning, and failure surfacing when a worker dies mid-epoch.
"""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.engine import AsyncMpEngine, EdgePack, MpEngine, DecomposedProblem, RoutePack
from repro.errors import SolverError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel.driver import DecomposedSolver
from repro.runtime.cpus import GRACE_S
from tests.engine.test_equivalence import pin_lattice, solve_2d

__all__ = ["pin_lattice"]  # re-exported fixture

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="mp engines require the fork start method",
)


@pytest.fixture()
def grid_2x1(two_group_fissile):
    u = make_homogeneous_universe(two_group_fissile)
    return Geometry(Lattice([[u, u]], 1.5, 1.5))


def make_solver(geometry, nx=2, ny=1, **kw):
    kw.setdefault("max_iterations", 5)
    kw.setdefault("engine", "mp")
    return DecomposedSolver(
        geometry, nx, ny, num_azim=4, azim_spacing=0.5, num_polar=2, **kw
    )


class TestEdgePack:
    """The directed-edge view of the route tables."""

    def test_edges_partition_the_routes(self, pin_lattice):
        solver = make_solver(pin_lattice, 2, 2)
        pack = EdgePack(DecomposedProblem(solver))
        assert pack.num_edges == len(pack.edge_pairs)
        union = np.concatenate(
            [pack.edge_routes(e) for e in range(pack.num_edges)]
        )
        assert sorted(union.tolist()) == list(range(pack.num_routes))

    def test_edge_pairs_are_directed_and_sorted(self, pin_lattice):
        solver = make_solver(pin_lattice, 2, 2)
        pack = EdgePack(DecomposedProblem(solver))
        assert list(pack.edge_pairs) == sorted(pack.edge_pairs)
        for src, dst in pack.edge_pairs:
            assert src != dst

    def test_out_in_edges_consistent(self, pin_lattice):
        solver = make_solver(pin_lattice, 2, 2)
        problem = DecomposedProblem(solver)
        pack = EdgePack(problem)
        for d in range(problem.num_domains):
            for e in pack.out_edges(d):
                assert pack.edge_pairs[e][0] == d
            for e in pack.in_edges(d):
                assert pack.edge_pairs[e][1] == d
        # Every edge appears exactly once as an out-edge and once in-edge.
        outs = [e for d in range(problem.num_domains) for e in pack.out_edges(d)]
        ins = [e for d in range(problem.num_domains) for e in pack.in_edges(d)]
        assert sorted(outs) == list(range(pack.num_edges))
        assert sorted(ins) == list(range(pack.num_edges))

    def test_inherits_route_accounting(self, pin_lattice):
        """Traffic accounting is the RoutePack's — byte-for-byte."""
        solver = make_solver(pin_lattice, 2, 2)
        problem = DecomposedProblem(solver)
        assert EdgePack(problem).pair_counts == RoutePack(problem).pair_counts


class TestAsyncMechanics:
    @needs_fork
    def test_comm_counters_reported(self, pin_lattice):
        solver, result = solve_2d(pin_lattice, "mp-async", max_iterations=6)
        assert set(result.comm_counters) == {
            "halo_wait_ns", "neighbor_stalls", "epochs_overlapped"
        }
        for value in result.comm_counters.values():
            assert value >= 0
        # Iteration 0 consumes no halo; every later worker-iteration either
        # overlapped or stalled, never both.
        per_worker_epochs = (result.num_iterations - 1) * result.num_workers
        assert result.comm_counters["epochs_overlapped"] <= per_worker_epochs

    @needs_fork
    def test_single_domain_no_routes(self, two_group_fissile):
        """One domain, zero edges: the degenerate mailbox still works."""
        u = make_homogeneous_universe(two_group_fissile)
        geometry = Geometry(Lattice([[u]], 1.5, 1.5))
        solver = make_solver(geometry, 1, 1, max_iterations=15, engine="mp-async")
        assert solver.routes.shape == (0, 6)
        result = solver.solve()
        assert result.num_workers == 1
        assert result.keff > 0
        assert result.comm_counters["neighbor_stalls"] == 0

    @needs_fork
    def test_early_convergence_halts_workers(self, grid_2x1):
        """The HALT grant retires workers mid-speculation without touching
        the converged flux: converged results match inproc exactly even
        though the async workers sweep one iteration ahead."""
        kw = dict(max_iterations=200, keff_tolerance=1e-4, source_tolerance=1e-3)
        oracle = make_solver(grid_2x1, engine="inproc", **kw).solve()
        result = make_solver(grid_2x1, engine="mp-async", workers=2, **kw).solve()
        assert oracle.converged and result.converged
        assert result.num_iterations == oracle.num_iterations
        assert result.keff == oracle.keff
        assert np.array_equal(result.scalar_flux, oracle.scalar_flux)
        assert result.comm_allreduce_calls == oracle.comm_allreduce_calls

    @needs_fork
    def test_worker_timers_include_async_stages(self, pin_lattice):
        _, result = solve_2d(pin_lattice, "mp-async", workers=2, max_iterations=6)
        assert [wid for wid, _ in result.worker_timers] == [0, 1]
        for _wid, payload in result.worker_timers:
            assert "worker_sweep" in payload
            assert "worker_grant_wait" in payload
            assert payload["worker_sweep"] > 0.0


class TestAsyncFailures:
    @needs_fork
    def test_worker_exception_surfaces_as_solver_error(self, grid_2x1, capfd):
        """A ``TypeError`` is outside ``WORKER_ERRORS``: that worker dies
        unreported, and the parent still names it within the grace."""
        for error, match in (
            (RuntimeError, "injected sweep failure"),
            (TypeError, "worker 1 died"),
        ):

            class ExplodingProblem(DecomposedProblem):
                def sweep_domain(self, d, phi_block, keff):
                    if d == 1:
                        raise error("injected sweep failure")
                    return super().sweep_domain(d, phi_block, keff)

            solver = make_solver(grid_2x1)
            engine = AsyncMpEngine(workers=2, timeout=30.0)
            started = time.monotonic()
            with pytest.raises(SolverError, match=match):
                engine.solve(ExplodingProblem(solver), engine.create_communicator(2))
            assert time.monotonic() - started < GRACE_S + 2.0
            # The raising worker names its exception class; a worker the
            # broken barrier stopped is not logged as a failure.
            err = capfd.readouterr().err
            assert "Logging error" not in err
            assert f"{error.__name__}: injected sweep failure" in err
            assert not [line for line in err.splitlines() if line.endswith("failed: ")]

    @needs_fork
    def test_killed_worker_identified_promptly(self, grid_2x1):
        """SIGKILL mid-epoch leaves no traceback; the grant/harvest poll
        must still name the dead worker and its signal, not time out."""

        class SuicidalProblem(DecomposedProblem):
            def sweep_domain(self, d, phi_block, keff):
                if d == 1:
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().sweep_domain(d, phi_block, keff)

        solver = make_solver(grid_2x1)
        engine = AsyncMpEngine(workers=2, timeout=5.0)
        with pytest.raises(SolverError, match=r"worker 1 died .*SIGKILL"):
            engine.solve(SuicidalProblem(solver), engine.create_communicator(2))

    def test_fork_requirement_reported(self, grid_2x1, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        solver = make_solver(grid_2x1, engine="mp-async")
        with pytest.raises(SolverError, match="fork"):
            solver.solve()

    def test_timeout_stored_on_engine(self):
        assert AsyncMpEngine(timeout=12.5).timeout == 12.5
        assert MpEngine(timeout=12.5).timeout == 12.5
