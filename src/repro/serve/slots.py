"""Solve slots: one long-lived forked solver process per solver thread.

ANT-MOC gives every device its own rank — no two sweeps share an address
space or a scheduler — and this module gives the serve farm the same
shape. A *slot* is a process forked once in
:meth:`SolveService.start <repro.serve.service.SolveService.start>`,
before the service has any thread. Each solver thread fronts exactly one
slot: on a report-cache miss it sends the job's
:class:`~repro.io.config.RunConfig` down the slot's pipe and blocks —
without the GIL — on ``[pipe, process sentinel]`` until the terminal
message arrives, so N slots solve on N cores while the server process
only admits, answers hits and waits.

What a slot runs: exactly what the CLI runs —
``AntMocApplication(cfg, stage_hook=…).run()`` or
``run_scenario_batch(cfg, stage_hook=…)`` — so a served solve maps its
shared-memory segments when it starts and unlinks them when it ends, as
every CLI run does. What a slot owns: nothing that outlives a job, and
nothing of the server — its first act is to drop every inherited socket
but its own pipe (sibling slots' pipes, the listener, client
connections), so pipe EOF reliably means "my server is gone" and a killed
server leaves nobody holding its address. Slots are non-daemon (the
``mp`` engines fork their workers from inside one) and ignore SIGINT (a
terminal Ctrl-C reaches the whole process group; the server drains and
stops them).

What crosses the pipe, down: a ``RunConfig`` per job, ``None`` to stop.
Up: ``("stage", name)`` for each pipeline stage the run announces, then
one terminal message — ``("done", SlotResult)`` or ``("failed",
traceback text)``. A :class:`SlotResult` is the solve in wire form: per
solved state the pristine ``RunReport.to_dict()`` payload and the flux,
as the very :class:`~repro.serve.cache.CacheEntry` a later report-cache
hit is rebuilt from.

A slot that exits without a terminal message (SIGKILL, a programming
error escaping the solve) is noticed at once through its sentinel: the
job fails with a named reason and the slot is respawned (DESIGN.md,
"Fault model").
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import stat
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any, Callable

from repro.engine.mp import _describe_exit
from repro.errors import ReproError, ServeError
from repro.io.config import RunConfig
from repro.io.logging_utils import get_logger
from repro.serve.cache import CacheEntry

#: What a solve can realistically raise inside a slot. Mirrors the engine
#: worker policy: programming errors crash the slot loudly (the job then
#: fails as a dead slot) instead of being repackaged as a failed solve.
SOLVE_ERRORS = (
    ReproError,
    ArithmeticError,
    ValueError,
    IndexError,
    OSError,
    RuntimeError,
)

#: How long a stopped slot gets to exit before it is terminated.
STOP_TIMEOUT_S = 10.0


@dataclass
class SlotResult:
    """A finished solve in wire form: ``(state hash, entry)`` per solved
    state — one pair with hash ``None`` for a plain run, one per state
    (plus ``parent_hash``) for a scenario batch."""

    states: list[tuple[str | None, CacheEntry]]
    parent_hash: str | None = None


#: A slot body: ``(config, announce_stage) -> SlotResult``.
SlotBody = Callable[[RunConfig, Callable[[str], None]], SlotResult]


def run_job(cfg: RunConfig, announce: Callable[[str], None]) -> SlotResult:
    """The slot body: the CLI's run (or scenario batch) of ``cfg``,
    reduced to its wire form."""
    if cfg.scenarios:
        from repro.scenario import run_scenario_batch

        batch = run_scenario_batch(cfg, stage_hook=announce)
        return SlotResult(
            [
                (state.state_hash, CacheEntry(state.run_report.to_dict(), state.scalar_flux))
                for state in batch.states
            ],
            parent_hash=batch.parent_hash,
        )
    from repro.runtime.antmoc import AntMocApplication

    result = AntMocApplication(cfg, stage_hook=announce).run()
    return SlotResult([(None, CacheEntry(result.run_report.to_dict(), result.scalar_flux))])


def _drop_inherited_sockets(keep: int) -> None:
    """Close every socket this process was forked holding except ``keep``
    (its own pipe — a duplex ``Pipe`` is a socketpair) and stdio."""
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        if fd <= 2 or fd == keep:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue  # the listing's own descriptor, closed again already


def _slot_main(index: int, conn: connection.Connection, body: SlotBody) -> None:
    """A slot process: take configs off the pipe until stopped or orphaned.

    The first actions are fork-safe by construction (a respawn forks from
    a process that has threads): signal dispositions, then descriptors —
    no lock of the server's is ever touched.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _drop_inherited_sockets(keep=conn.fileno())

    def announce(stage: str) -> None:
        conn.send(("stage", stage))

    try:
        while True:
            cfg = conn.recv()
            if cfg is None:
                return
            try:
                result = body(cfg, announce)
            except SOLVE_ERRORS:
                conn.send(("failed", traceback.format_exc()))
            else:
                conn.send(("done", result))
    except (EOFError, OSError):
        get_logger("repro.serve").warning("solve slot %d: server is gone, exiting", index)


@dataclass
class _Slot:
    """Server-side handle of one slot. The counters are written only by
    the solver thread that fronts the slot."""

    index: int
    process: Any
    conn: connection.Connection
    solves: int = 0
    busy_seconds: float = 0.0
    restarts: int = 0


class SolveSlots:
    """``count`` slot processes and the server's end of their pipes."""

    def __init__(self, count: int, body: SlotBody = run_job) -> None:
        self._count = int(count)
        self._body = body
        self._slots: list[_Slot] = []
        self._logger = get_logger("repro.serve")

    def start(self) -> None:
        """Fork the slots. Call before the process has any thread."""
        for index in range(self._count):
            self._slots.append(_Slot(index, *self._fork(index)))

    def _fork(self, index: int) -> tuple[Any, connection.Connection]:
        methods = multiprocessing.get_all_start_methods()
        if "fork" not in methods:
            raise ServeError(
                "solve slots need the 'fork' start method (a slot inherits the "
                f"loaded program and its slot body); platform offers {methods}"
            )
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        process = ctx.Process(
            target=_slot_main,
            args=(index, theirs, self._body),
            name=f"repro-serve-slot-{index}",
            daemon=False,
        )
        process.start()
        theirs.close()
        return process, ours

    def solve(
        self, index: int, cfg: RunConfig, on_stage: Callable[[str], None]
    ) -> SlotResult:
        """Run ``cfg`` in slot ``index``; block until it answers.

        Stage announcements are replayed through ``on_stage`` as they
        arrive. Raises :class:`~repro.errors.ServeError` carrying the
        slot's traceback when the solve raised, or naming how the process
        ended when it went away (the slot has been respawned by then).
        """
        slot = self._slots[index]
        started = time.monotonic()
        try:
            message = self._exchange(slot, cfg, on_stage)
        finally:
            slot.busy_seconds += time.monotonic() - started
        if message is None:
            slot.process.join()
            reason = _describe_exit(slot.process.exitcode)
            slot.conn.close()
            slot.process, slot.conn = self._fork(index)
            slot.restarts += 1
            self._logger.error("solve slot %d died (%s); respawned", index, reason)
            raise ServeError(f"solve slot {index} died ({reason})")
        if message[0] == "failed":
            raise ServeError(message[1])
        slot.solves += 1
        return message[1]

    @staticmethod
    def _exchange(slot: _Slot, cfg: RunConfig, on_stage: Callable[[str], None]):
        """Send ``cfg``; return the terminal message, ``None`` if the slot
        is gone. Waiting on the sentinel too is how a dead slot is noticed
        at once rather than never. A replay that raises (an out-of-order
        announcement) is re-raised only after the terminal message, so the
        pipe never carries one job's answer into the next job."""
        refused: ServeError | None = None
        try:
            slot.conn.send(cfg)
            while True:
                ready = connection.wait([slot.conn, slot.process.sentinel])
                if slot.conn not in ready:
                    return None
                message = slot.conn.recv()
                if message[0] != "stage":
                    break
                try:
                    on_stage(message[1])
                except ServeError as exc:
                    refused = refused or exc
        except (EOFError, OSError):
            return None
        if refused is not None:
            raise refused
        return message

    def stats(self) -> list[dict[str, Any]]:
        return [
            {
                "index": slot.index,
                "pid": slot.process.pid,
                "solves": slot.solves,
                "busy_seconds": slot.busy_seconds,
                "restarts": slot.restarts,
            }
            for slot in self._slots
        ]

    def close(self) -> None:
        """Stop every slot (they must be idle): stop message, bounded
        join, terminate for stragglers. The handles stay, so ``stats``
        still reports what each slot did."""
        for slot in self._slots:
            try:
                slot.conn.send(None)
            except OSError:
                pass  # already dead; the join below reaps it
        for slot in self._slots:
            slot.process.join(STOP_TIMEOUT_S)
            if slot.process.is_alive():
                self._logger.error(
                    "solve slot %d ignored stop for %.0fs; terminating",
                    slot.index, STOP_TIMEOUT_S,
                )
                slot.process.terminate()
                slot.process.join()
            slot.conn.close()
