"""Solve slots: every fresh solve runs in a forked slot process exactly as
the CLI runs it, no shared-memory segment outlives the solve that mapped
it, and a dead process — slot, engine worker or server — has a named,
bounded outcome.

The fault tests are rows of DESIGN.md's "Fault model" table; the hygiene
rule of the server-death row (no process of the server's session, no
``/dev/shm`` segment, two seconds after it is gone) is the e2e harness's
own (``benchmarks/e2e/ops.py``), asserted here in tier-1.
"""

from __future__ import annotations

import ast
import inspect
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServeError
from repro.io.config import config_from_dict
from repro.runtime.antmoc import AntMocApplication
from repro.scenario import run_scenario_batch
from repro.serve import JobState, ServeClient, ServeOptions, SolveService
from repro.serve.slots import run_job

from tests.scenario.conftest import batch_config

from .conftest import (
    HeldBody,
    HeldWhileSweeping,
    KillFirstEngineWorker,
    assert_reaped,
    solve_payload,
    wait_until,
)
from .test_equivalence import needs_fork, strip_service_annotation

pytestmark = needs_fork

REPO_ROOT = Path(__file__).resolve().parents[2]
MP_DECOMPOSED = {"nx": 3, "ny": 3, "engine": "mp", "workers": 2}


def assert_equals_direct(job, payload):
    direct = AntMocApplication(config_from_dict(payload)).run()
    assert np.array_equal(job.scalar_flux, direct.scalar_flux)
    served, reference = job.report.to_dict(), direct.run_report.to_dict()
    assert served["results"] == reference["results"]
    assert strip_service_annotation(served) == strip_service_annotation(reference)


class TestEverySolveGoesThroughASlot:
    def test_the_server_process_never_solves(self, service, monkeypatch):
        """Patched after the slots forked, so only the server sees the spy."""
        import repro.scenario

        def spy(*args, **kwargs):
            raise AssertionError("a solve ran in the server process")

        monkeypatch.setattr(AntMocApplication, "run", spy)
        monkeypatch.setattr(repro.scenario, "run_scenario_batch", spy)
        requests = [
            solve_payload(),
            solve_payload(decomposition=MP_DECOMPOSED),
            solve_payload(decomposition={**MP_DECOMPOSED, "engine": "mp-async"}),
            batch_config(),
        ]
        jobs = [service.submit(request) for request in requests]
        assert [job.wait(timeout=120.0) for job in jobs] == [JobState.DONE] * 4
        assert all("serve_slot" in job.report.counters for job in jobs)

    def test_concurrent_jobs_are_each_bitwise_their_direct_run(self, service):
        payloads = [solve_payload(), solve_payload(decomposition=MP_DECOMPOSED)]
        jobs = [service.submit(request) for request in payloads]
        assert [job.wait(timeout=120.0) for job in jobs] == [JobState.DONE] * 2
        for job, request in zip(jobs, payloads):
            assert not job.cache_hit
            assert_equals_direct(job, request)

    def test_no_fork_is_a_clean_refusal(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        service = SolveService(ServeOptions(solver_threads=1))
        with pytest.raises(ServeError, match="'fork' start method"):
            service.start()

    def test_no_segment_outlives_a_served_solve(self, service):
        for engine in ("mp", "mp-async"):
            job = service.solve(solve_payload(decomposition={**MP_DECOMPOSED, "engine": engine}))
            assert not job.cache_hit
        pids = [slot["pid"] for slot in service.stats()["slots"]]
        assert live_segments(pids) == set()


class TestOneWayIn:
    """A slot calls what the CLI calls; nothing else can be handed in."""

    def test_entry_points_take_no_hosting_hooks(self):
        from repro.runtime.antmoc import build_solver

        for entry in (AntMocApplication.__init__, run_scenario_batch, build_solver):
            hooks = {"engine", "tracking_cache"} & set(inspect.signature(entry).parameters)
            assert hooks == set(), entry.__qualname__

    def test_the_slot_body_is_the_cli_entry_points(self):
        tree = ast.parse(inspect.getsource(run_job))
        entries = [
            (node.func.id, len(node.args), [kw.arg for kw in node.keywords])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"AntMocApplication", "run_scenario_batch", "build_solver"}
        ]
        assert sorted(entries) == [
            ("AntMocApplication", 1, ["stage_hook"]),
            ("run_scenario_batch", 1, ["stage_hook"]),
        ]


class TestSlotDeath:
    def test_killed_slot_fails_its_job_and_is_respawned(self, payload):
        held = HeldBody()
        service = SolveService(ServeOptions(solver_threads=1), slot_body=held).start()
        try:
            doomed = service.submit(payload)
            victim = held.entered()
            assert victim == service.stats()["slots"][0]["pid"]
            os.kill(victim, signal.SIGKILL)
            assert doomed.wait(timeout=60.0) is JobState.FAILED
            assert doomed.error == "solve slot 0 died (killed by SIGKILL)"
            stats = service.stats()
            assert stats["totals"]["failed"] == 1
            assert stats["totals"]["slot_restarts"] == 1
            assert stats["slots"][0]["restarts"] == 1
            assert stats["slots"][0]["pid"] != victim
            assert len(service.report_cache) == 0  # nothing cached for the key
            # The same thread's next request solves normally, bit for bit.
            held.release()
            again = service.solve(payload)
            assert not again.cache_hit
            assert_equals_direct(again, payload)
            pids = [slot["pid"] for slot in service.stats()["slots"]]
        finally:
            held.release()
            service.close()
        assert_reaped([victim, *pids])

    def test_follower_of_a_dead_leader_solves_for_itself(self, held_service, held, payload):
        leader = held_service.submit(payload)
        follower = held_service.submit(payload)
        leading_pid = held.entered()
        wait_until(lambda: follower.state is JobState.ADMITTED)
        os.kill(leading_pid, signal.SIGKILL)
        assert leader.wait(timeout=60.0) is JobState.FAILED
        held.release()
        assert follower.wait(timeout=60.0) is JobState.DONE
        assert not follower.cache_hit
        assert_equals_direct(follower, payload)

    def test_a_slot_that_exits_on_its_own_is_named_too(self, payload):
        def quitter(cfg, announce):
            os._exit(3)

        with SolveService(ServeOptions(solver_threads=1), slot_body=quitter) as service:
            job = service.submit(payload)
            assert job.wait(timeout=60.0) is JobState.FAILED
            assert job.error == "solve slot 0 died (exit code 3)"


class TestDeadlineMidSweep:
    def test_a_deadline_passing_while_sweeping_does_not_cancel_the_solve(self, payload):
        """A request's ``timeout`` is a queue deadline: once its job is
        admitted, the solve runs to completion and is answered ``done``."""
        held = HeldWhileSweeping()
        service = SolveService(ServeOptions(solver_threads=1), slot_body=held).start()
        try:
            job = service.submit(payload, timeout=1.0)
            held.entered()
            wait_until(lambda: job.state is JobState.SWEEPING)
            wait_until(lambda: time.monotonic() > job.deadline + 0.05)
            held.release()
            assert job.wait(timeout=60.0) is JobState.DONE
            assert job.error is None and not job.cache_hit
            assert_equals_direct(job, payload)
            stats = service.stats()
            assert stats["totals"]["timed_out"] == 0
            assert stats["totals"]["slot_restarts"] == 0
            # The slot's next request solves normally, bit for bit.
            other = solve_payload()
            other["solver"]["max_iterations"] = 3
            again = service.solve(other)
            assert not again.cache_hit
            assert_equals_direct(again, other)
            pids = [slot["pid"] for slot in service.stats()["slots"]]
        finally:
            held.release()
            service.close()
        assert_reaped(pids)


class TestEngineWorkerDeath:
    def test_killed_engine_worker_fails_the_job_not_the_slot(self):
        killer = KillFirstEngineWorker()
        request = solve_payload(decomposition=MP_DECOMPOSED)
        request["solver"]["max_iterations"] = 200  # ~0.25 s of sweeping to kill into
        service = SolveService(ServeOptions(solver_threads=1), slot_body=killer).start()
        try:
            doomed = service.submit(request)
            assert doomed.wait(timeout=120.0) is JobState.FAILED
            assert killer.killed() == 1
            assert "mp engine worker failure" in doomed.error
            assert "killed by SIGKILL" in doomed.error
            assert service.stats()["totals"]["slot_restarts"] == 0
            # The same slot's next request solves normally, bit for bit.
            again = service.solve(request)
            assert not again.cache_hit
            assert_equals_direct(again, request)
            pids = [slot["pid"] for slot in service.stats()["slots"]]
            assert live_segments(pids) == set()
        finally:
            service.close()


def session_members(session_id: int) -> list[int]:
    """Live (non-zombie) processes of a session, by ``/proc``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="utf-8")
        except OSError:
            continue  # exited while we were looking
        fields = stat.rsplit(")", 1)[-1].split()  # state ppid pgrp session
        if fields[0] != "Z" and int(fields[3]) == session_id:
            members.append(int(entry))
    return members


def mapped_segments(pids: list[int]) -> set[str]:
    """``/dev/shm`` segments these processes have mapped (so a concurrent
    test run's segments are never mistaken for the server's)."""
    names = set()
    for pid in pids:
        try:
            maps = Path("/proc", str(pid), "maps").read_text(encoding="utf-8")
        except OSError:
            continue  # exited while we were looking
        for line in maps.splitlines():
            if "/dev/shm/" in line:
                names.add(line.rsplit("/dev/shm/", 1)[1].split()[0])
    return names


def live_segments(pids: list[int]) -> set[str]:
    """Segments these processes map that still exist in ``/dev/shm``
    (mapped but already unlinked: multiprocessing's own heap)."""
    return mapped_segments(pids) & set(os.listdir("/dev/shm"))


def survivors_after(pids: list[int], grace: float) -> list[int]:
    """The pids still alive ``grace`` seconds from now (awaited on their
    pidfds, not polled)."""
    deadline = time.monotonic() + grace
    alive = []
    for pid in pids:
        try:
            fd = os.pidfd_open(pid)
        except ProcessLookupError:
            continue
        try:
            gone, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(fd)
        if not gone:
            alive.append(pid)
    return alive


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs Linux pidfds")
class TestServerDeath:
    def test_killed_server_leaves_no_process_and_no_segment(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--address", "unix:s.sock", "--threads", "2"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline().startswith("repro-serve listening on ")
            with ServeClient(f"unix:{tmp_path / 's.sock'}") as client:
                # Put one mp solve in flight (~0.7 s of sweeping).
                long_solve = solve_payload(decomposition=MP_DECOMPOSED)
                long_solve["solver"]["max_iterations"] = 500
                client.solve(long_solve, wait=False)
                # The server, its two slots and the two engine workers one forked.
                wait_until(lambda: len(session_members(proc.pid)) >= 5)
                members = session_members(proc.pid)
                assert len(members) >= 5  # the server, its two slots, two workers
                segments = live_segments(members)
                assert not segments  # the arena is anonymous memory
                proc.kill()
            proc.wait(timeout=60)
            assert survivors_after(members, grace=2.0) == []
        finally:
            for pid in session_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
            proc.stdout.close()
            proc.wait()

    def test_a_slot_mid_job_notices_its_dead_server(self, tmp_path):
        """A job far longer than the grace (it cannot converge): the slot
        hears nothing on its pipe while its ``mp`` solve runs, so it must
        notice the dead server in its own waits on its workers."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--address", "unix:s.sock", "--threads", "1"],
            stdout=subprocess.PIPE, text=True, env=env, cwd=tmp_path,
            start_new_session=True,
        )
        try:
            assert proc.stdout.readline().startswith("repro-serve listening on ")
            with ServeClient(f"unix:{tmp_path / 's.sock'}") as client:
                endless = solve_payload(decomposition=MP_DECOMPOSED)
                endless["solver"].update(
                    max_iterations=100_000, keff_tolerance=1e-15, source_tolerance=1e-15
                )
                client.solve(endless, wait=False)
                # The server, its slot and the slot's two engine workers.
                wait_until(lambda: len(session_members(proc.pid)) >= 4)
                members = session_members(proc.pid)
                proc.kill()
            proc.wait(timeout=60)
            assert survivors_after(members, grace=2.0) == []
        finally:
            for pid in session_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
            proc.stdout.close()
            proc.wait()
