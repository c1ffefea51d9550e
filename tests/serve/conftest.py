"""Shared fixtures for the serve suite: tiny payloads, live services."""

from __future__ import annotations

import copy
import multiprocessing
import os
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

    def __call__(self, cfg, engine_pool, announce):
        self._begin.send(os.getpid())
        if not self._gate.poll(60.0):
            raise RuntimeError("held slot body was never released")
        return run_job(cfg, engine_pool, announce)

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
