"""Behavioural tests of the multiprocess engine (arena tests: test_shm.py)."""

import multiprocessing
import os
import signal
import threading
import time
from threading import BrokenBarrierError

import pytest

from repro.engine import MpEngine, DecomposedProblem
from repro.engine.mp import SemaphoreBarrier
from repro.errors import CommunicationError, SolverError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel.driver import DecomposedSolver
from repro.runtime.cpus import GRACE_S
from tests.processes import killed_caller, survivors_after

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
        assert solver.routes.shape == (0, 6)
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
            assert set(payload) == {"worker_build", "worker_sweep", "worker_exchange"}
            assert payload["worker_sweep"] > 0.0 and payload["worker_build"] > 0.0

    @needs_fork
    def test_worker_exception_surfaces_as_solver_error(self, grid_2x1, capfd):
        """A sweep crash in a forked worker must reach the parent as a
        SolverError carrying the worker traceback, not a hang. A
        ``TypeError`` is outside ``WORKER_ERRORS``: that worker dies
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

            solver = DecomposedSolver(
                grid_2x1, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
                max_iterations=5, engine="mp",
            )
            engine = MpEngine(workers=2, timeout=30.0)
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

    @needs_fork
    def test_worker_killed_asleep_in_the_barrier_cannot_wedge_the_solve(self, grid_2x1):
        """Worker 1 is SIGKILLed while it waits in the barrier for a slow
        worker 0. A barrier whose last arrival waits for every sleeper to
        acknowledge its wake-up (``multiprocessing.Barrier``) hangs here
        forever, whatever the timeout; the engine's must fail the solve,
        naming the worker, long before its timeout."""

        class SlowProblem(DecomposedProblem):
            def sweep_domain(self, d, phi_block, keff):
                if d == 0:
                    time.sleep(1.0)
                return super().sweep_domain(d, phi_block, keff)

        def kill_worker_1():
            while True:
                for child in multiprocessing.active_children():
                    if child.name == "repro-mp-worker-1":
                        time.sleep(0.5)  # its sweep is done: it waits in the barrier
                        os.kill(child.pid, signal.SIGKILL)
                        return
                time.sleep(0.001)

        solver = DecomposedSolver(
            grid_2x1, 2, 1, num_azim=4, azim_spacing=0.5, num_polar=2,
            max_iterations=5, engine="mp",
        )
        engine = MpEngine(workers=2, timeout=120.0)
        killer = threading.Thread(target=kill_worker_1, daemon=True)
        killer.start()
        started = time.monotonic()
        with pytest.raises(SolverError, match=r"worker 1 died .*SIGKILL"):
            engine.solve(SlowProblem(solver), engine.create_communicator(2))
        assert time.monotonic() - started < 30.0
        killer.join()

    @needs_fork
    def test_killed_caller_leaves_no_worker_and_no_segment(self):
        """SIGKILL the caller of a solve mid-sweep: within five seconds
        neither worker is alive — the workers die with their caller (the
        orphan rule) — and no process of the run ever mapped a ``/dev/shm``
        segment: the arena is anonymous memory."""
        script = (
            "from repro.runtime import AntMocApplication\n"
            "from tests.observability.conftest import mini_2d_config\n"
            "AntMocApplication(mini_2d_config(\n"
            "    solver={'max_iterations': 100000, 'keff_tolerance': 1e-14,\n"
            "            'source_tolerance': 1e-14},\n"
            "    decomposition={'nx': 3, 'ny': 3, 'engine': 'mp', 'workers': 2},\n"
            ")).run()\n"
        )

        def sweeping(members):  # the caller and both workers
            return len(members) >= 3

        with killed_caller(script, ready=sweeping) as (members, segments):
            assert not segments
            assert survivors_after(members, grace=5.0) == []

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


def _lockstep_party(barrier, counts, index, rounds):
    """Bump this party's count once per round; between the round's two
    barriers every party must read every count at the round number."""
    for done in range(1, rounds + 1):
        counts[index] += 1
        barrier.wait(30.0)
        if min(counts) != done:
            os._exit(3)  # a party passed the barrier before the others arrived
        barrier.wait(30.0)


@needs_fork
class TestSemaphoreBarrier:
    def test_generations_never_mix_with_more_parties_than_cores(self):
        ctx = multiprocessing.get_context("fork")
        parties, rounds = os.cpu_count() + 3, 200
        barrier = SemaphoreBarrier(ctx, parties)
        counts = ctx.RawArray("q", parties)
        procs = [
            ctx.Process(target=_lockstep_party, args=(barrier, counts, i, rounds))
            for i in range(parties)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60.0)
        assert [proc.exitcode for proc in procs] == [0] * parties
        assert list(counts) == [rounds] * parties

    def test_a_timed_out_wait_breaks_the_barrier_for_every_party(self):
        ctx = multiprocessing.get_context("fork")
        barrier = SemaphoreBarrier(ctx, 3)
        late = ctx.Process(target=barrier.wait, args=(30.0,))
        late.start()
        with pytest.raises(BrokenBarrierError):
            barrier.wait(0.2)  # the third party never comes
        late.join(timeout=30.0)
        assert late.exitcode == 1  # its wait raised BrokenBarrierError too
        with pytest.raises(BrokenBarrierError):
            barrier.wait(30.0)
