"""Shared fixtures for the serve suite: tiny payloads, live services."""

from __future__ import annotations

import copy
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.serve import ServeOptions, SolveService
from repro.serve.slots import run_job

#: A deterministic c5g7-mini request: tolerances far below reach, so the
#: solve always runs exactly ``max_iterations`` iterations.
BASE_PAYLOAD = {
    "geometry": "c5g7-mini",
    "tracking": {"num_azim": 4, "azim_spacing": 0.5, "num_polar": 2},
    "solver": {
        "max_iterations": 5,
        "keff_tolerance": 1e-14,
        "source_tolerance": 1e-14,
    },
}


def solve_payload(**overrides):
    """A fresh request dict; keyword sections replace top-level entries."""
    payload = copy.deepcopy(BASE_PAYLOAD)
    payload.update(overrides)
    return payload


class HeldBody:
    """A slot body that announces itself and then waits at a gate.

    Runs inside the forked slots, so it talks to the test through
    inherited simplex pipes — kill-safe (a SIGKILLed waiter wedges a
    ``multiprocessing.Event``) and not sockets (a slot drops inherited
    sockets). Each solve that begins sends its slot's pid up one pipe
    (:meth:`entered` blocks on it — no sleeps); the gate is open while the
    other pipe holds a byte, which waiters poll for and never consume.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._began, self._begin = ctx.Pipe(duplex=False)
        self._gate, self._opener = ctx.Pipe(duplex=False)

    def __call__(self, cfg, announce):
        self._begin.send(os.getpid())
        if not self._gate.poll(60.0):
            raise RuntimeError("held slot body was never released")
        return run_job(cfg, announce)

    def release(self) -> None:
        if not self._gate.poll(0):
            self._opener.send_bytes(b"open")

    def hold(self) -> None:
        while self._gate.poll(0):
            self._gate.recv_bytes()

    def entered(self, timeout: float = 60.0) -> int:
        """Block until the next solve begins; the pid of its slot."""
        assert self._began.poll(timeout), "no solve began"
        return self._began.recv()

    def solves_begun(self) -> int:
        """Drain and count the solves that began since the last call."""
        count = 0
        while self._began.poll(0):
            self._began.recv()
            count += 1
        return count


class KillFirstEngineWorker:
    """A slot body that SIGKILLs its slot's first ``repro-mp-worker-*``
    child once the job starts sweeping, then lets the run end as it will.

    Armed for the first job a slot runs: the flag lives in the forked slot,
    so that slot's later jobs run :func:`run_job` untouched. The watcher is
    a thread of the slot process (the engine forks its workers from the
    slot's main thread); it sends each victim's pid up an inherited simplex
    pipe (:meth:`killed` counts them) before killing it.
    """

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._victims, self._report = ctx.Pipe(duplex=False)
        self._armed = True

    def __call__(self, cfg, announce):
        def on_stage(stage):
            announce(stage)
            if stage == "transport_solving" and self._armed:
                self._armed = False
                threading.Thread(target=self._kill_first_worker, daemon=True).start()

        return run_job(cfg, on_stage)

    def _kill_first_worker(self) -> None:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            workers = sorted(
                (child for child in multiprocessing.active_children()
                 if child.name.startswith("repro-mp-worker-")),
                key=lambda child: child.name,
            )
            if workers:
                self._report.send(workers[0].pid)
                os.kill(workers[0].pid, signal.SIGKILL)
                return
            time.sleep(0.001)

    def killed(self) -> int:
        """Drain and count the workers killed since the last call."""
        count = 0
        while self._victims.poll(0):
            self._victims.recv()
            count += 1
        return count


def wait_until(predicate, timeout: float = 60.0) -> None:
    """Block until an observable condition holds (bounded; fails loudly)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def assert_reaped(pids) -> None:
    """Every pid is gone (joined by the service, not merely signalled)."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.fixture()
def held():
    return HeldBody()


@pytest.fixture()
def held_service(held):
    """Two slots whose solves wait until ``held.release()``."""
    svc = SolveService(
        ServeOptions(solver_threads=2, report_cache_size=8), slot_body=held
    )
    svc.start()
    yield svc
    held.release()
    svc.close()


@pytest.fixture()
def payload():
    return solve_payload()


@pytest.fixture()
def service():
    svc = SolveService(ServeOptions(solver_threads=2, report_cache_size=8))
    svc.start()
    yield svc
    svc.close()


@pytest.fixture()
def idle_service():
    """A service whose solver threads were never started: jobs stay
    queued, which makes admission control and deadlines deterministic."""
    svc = SolveService(ServeOptions(solver_threads=1, max_queue_depth=3))
    yield svc
    svc.close(drain=False)
