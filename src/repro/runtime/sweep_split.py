"""A lone 2D solve's two sweep directions on two processes.

Algorithm 1 makes every (track, direction) traversal of a sweep an
independent unit of work; ANT-MOC maps them onto GPU threads. A lone
single-domain 2D numpy solve would otherwise leave every CPU but one idle,
so :func:`split_sweep` hands its backward traversals (direction 1) to one
forked helper process while the caller sweeps the forward ones.

**Same bits.** The numpy kernel sums each direction's tally with its own
``bincount`` and adds ``bins(0)``, then ``bins(1)``, onto zeros
(:meth:`~repro.solver.backends.numpy_backend.SweepWorkspace.reduce`).
The helper runs the same per-direction lockstep on the same inputs and
hands back its exit flux, its bins and, with CMFD on, its captured
crossings; the caller adds the bins where it would have added its own.
Exchange and current fold stay in the caller, unchanged.

**When.** :func:`split_sweep` decides once per solve and records why not
(:attr:`SplitRecord.reason`): a decomposed, 3D or non-numpy solve never
splits, and neither does a process that is not top-level (serve slots,
scenario shares and engine workers run where a parent already spends the
CPUs), one that cannot fork, or one with a single usable CPU
(:func:`~repro.runtime.cpus.cpu_budget`).

**Lifecycle.** The first sweep runs in process, so it builds the plan,
the exp table and the workspace, which the helper inherits copy-on-write;
the helper is forked when the second sweep starts, so a one-sweep solve
never forks. Each process then frees the workspace buffers of the
direction it no longer sweeps, so the split adds no peak memory (the
sweeper binds a fresh workspace after the solve). For the solve, the
helper is pinned to one CPU of the
caller's affinity mask and the caller keeps the rest — unpinned, a woken
helper often lands on its waker's CPU — and the caller's mask is restored
on every exit path. Per sweep the caller publishes the reduced source and
its direction-1 entry flux into anonymous ``MAP_SHARED`` memory (no
``/dev/shm`` name, so nothing can leak), writes one byte down the *go*
pipe and sweeps direction 0; the helper answers with one byte up the
*done* pipe. The caller waits on that pipe in timed slices that check the
helper's exit status, so a dead helper is a
:class:`~repro.errors.SolverError` that names how it died; the helper
waits on the go pipe the same way and exits when the caller closes it or
is gone. The helper lives for one solve and is reaped on every exit path.
It is a bare ``os.fork``: importing ``multiprocessing`` would cost every
2D solve start-up time and resident memory, and the helper needs none of
it; ``mmap``, ``select`` and ``signal`` are imported by a solve that
forks, not by every run that imports this module.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.errors import SolverError
from repro.io.logging_utils import get_logger
from repro.runtime.cpus import cpu_budget
from repro.solver.backends import NumpySweepBackend, SweepWorkspace, lockstep
from repro.solver.solver import MOCSolver, TransportSolver
from repro.solver.sweep2d import TransportSweep2D

#: Why a solve swept on one process (besides the CPU budget's reasons).
DECOMPOSED = "decomposed"
THREE_D = "3D"
BACKEND = "backend"
NOT_TOP_LEVEL = "not top-level"
NO_AFFINITY = "affinity not settable"
MASKED = "masked"
ONE_SWEEP = "1 sweep"

#: The longest either side waits before checking that the other is alive.
LIVENESS_SLICE_S = 1.0
#: How long a helper told to stop gets to exit before it is killed.
REAP_TIMEOUT_S = 5.0

_LOG = get_logger("repro.solver")


@dataclass
class SplitRecord:
    """How one solve's sweeps ran, once it is over: on one process, for
    ``reason``, or on two (``reason`` is ``None``). The ``helper_*``
    seconds are the helper's gather / lockstep / reduce phases, on its own
    clock and concurrent with the caller's; ``wait_seconds`` is the
    caller's wait for the helper, part of its own ``sweep/reduce`` row."""

    reason: str | None = None
    helper_gather_seconds: float = 0.0
    helper_lockstep_seconds: float = 0.0
    helper_reduce_seconds: float = 0.0
    wait_seconds: float = 0.0

    @property
    def processes(self) -> int:
        """Processes the solve's sweeps ran on."""
        return 1 if self.reason is not None else 2

    def describe(self) -> str:
        """One line for the run log and the CLI report."""
        if self.processes == 1:
            return f"1 process ({self.reason})"
        return (
            "2 processes (backward direction on a helper: gather "
            f"{self.helper_gather_seconds:.4f} s, lockstep {self.helper_lockstep_seconds:.4f} s, "
            f"reduce {self.helper_reduce_seconds:.4f} s; caller waited "
            f"{self.wait_seconds:.4f} s)"
        )


def why_not_split(solver: TransportSolver) -> str | None:
    """Why ``solver``'s sweeps stay on this process, or ``None`` when the
    backward direction may go to a helper."""
    if not isinstance(solver, MOCSolver):
        return DECOMPOSED
    if not isinstance(solver.sweeper, TransportSweep2D):
        return THREE_D
    if not isinstance(solver.sweeper.backend, NumpySweepBackend):
        return BACKEND
    # A process multiprocessing started has it imported; this one may not.
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return NOT_TOP_LEVEL
    return cpu_budget().why_one


@contextmanager
def split_sweep(solver: TransportSolver) -> Iterator[SplitRecord]:
    """Sweep ``solver``'s backward direction on a helper for the solve run
    inside the block, when :func:`why_not_split` allows; yields the record
    the block's solve fills in. The helper is reaped and the affinity mask
    restored when the block exits, however it exits."""
    record = SplitRecord(reason=why_not_split(solver))
    if record.reason is not None:
        yield record
        return
    assert isinstance(solver, MOCSolver) and isinstance(solver.sweeper, TransportSweep2D)
    sweeper = solver.sweeper
    split = DirectionSplit(sweeper, record)
    sweeper.split = split
    clean = False
    try:
        yield record
        clean = True
    finally:
        sweeper.split = None
        split.close(clean)


class _Shared:
    """The float64 arrays caller and helper exchange, in one anonymous
    shared mapping: the reduced source and direction 1's flux (entry flux
    in, exit flux out), the helper's tally bins and captured crossings,
    and its phase seconds."""

    source: np.ndarray
    psi: np.ndarray
    bins: np.ndarray
    crossings: np.ndarray
    seconds: np.ndarray

    def __init__(self, sweeper: TransportSweep2D) -> None:
        import mmap

        capture = None if sweeper.current_tally is None else sweeper.current_tally.capture
        shapes = [
            (sweeper.terms.num_regions, sweeper.num_groups),
            sweeper.psi_in[:, 1].shape,
            (sweeper.terms.num_regions * sweeper.num_groups,),
            (0,) if capture is None else capture.out[1].shape,
            (3,),
        ]
        sizes = [int(np.prod(shape)) for shape in shapes]
        self._map = mmap.mmap(-1, 8 * sum(sizes))
        offsets = np.cumsum([0] + sizes).tolist()
        self.source, self.psi, self.bins, self.crossings, self.seconds = (
            np.frombuffer(self._map, np.float64, size, 8 * offset).reshape(shape)
            for shape, size, offset in zip(shapes, sizes, offsets)
        )


class DirectionSplit:
    """The caller's end of one solve's backward-direction helper: what a
    :class:`~repro.solver.sweep2d.TransportSweep2D` hands its numpy kernel
    as ``SweepContext.remote``."""

    def __init__(self, sweeper: TransportSweep2D, record: SplitRecord) -> None:
        self.sweeper = sweeper
        self.record = record
        self._sweeps = 0
        self._masked = False
        self._pid: int | None = None
        self._status: int | None = None
        self._mask: set[int] | None = None
        self._go: int | None = None
        self._done: int | None = None
        self._shared: _Shared | None = None

    def remote(self, masked: bool) -> "DirectionSplit | None":
        """Who sweeps the next sweep's direction 1: the helper (this
        split, forked on the second sweep), or ``None`` — this process —
        for the first sweep, for a masked one, and when pinning failed."""
        if masked:
            self._masked = True
            return None
        self._sweeps += 1
        if self._pid is None and (
            self._sweeps == 1 or self.record.reason is not None or not self._start()
        ):
            return None
        return self

    def _start(self) -> bool:
        """Pin, then fork the helper; ``False`` (with the reason recorded)
        when the affinity mask cannot be set."""
        try:
            mask = os.sched_getaffinity(0)
            cpu = max(mask)
            os.sched_setaffinity(0, mask - {cpu})
        except (AttributeError, OSError, ValueError) as exc:
            self.record.reason = NO_AFFINITY
            _LOG.info("sweep split: %s (%s)", NO_AFFINITY, exc)
            return False
        self._mask = mask
        self._shared = _Shared(self.sweeper)
        go_read, self._go = os.pipe()
        self._done, done_write = os.pipe()
        for stream in (sys.stdout, sys.stderr):
            stream.flush()  # nothing buffered is written twice
        caller = os.getpid()
        pid = os.fork()
        if pid == 0:  # the helper: never returns into the caller's stack
            code = 1
            try:
                _helper_main(self, cpu, go_read, done_write, caller)
                code = 0
            except Exception:  # its last words; the caller names the exit
                _LOG.exception("sweep helper failed")
            finally:
                os._exit(code)
        os.close(go_read)
        os.close(done_write)
        self._pid = pid
        self.sweeper.workspace.drop(1)  # the helper's copy is the live one
        return True

    def release(self, psi: np.ndarray, source: np.ndarray) -> None:
        """Publish direction 1's entry flux and the reduced source, and
        let the helper sweep."""
        assert self._shared is not None and self._go is not None
        np.copyto(self._shared.source, source)
        np.copyto(self._shared.psi, psi)
        try:
            os.write(self._go, b"\1")
        except BrokenPipeError:  # the helper is gone
            raise self._death() from None

    def collect(self, psi: np.ndarray, capture: Any) -> np.ndarray:
        """Wait for the helper; its exit flux into ``psi``, its captured
        crossings into ``capture``; returns its flat tally bins."""
        assert self._shared is not None
        start = time.perf_counter()
        self._wait()
        self.record.wait_seconds += time.perf_counter() - start
        np.copyto(psi, self._shared.psi)
        if capture is not None:
            np.copyto(capture.out[1], self._shared.crossings)
        return self._shared.bins

    def _wait(self) -> None:
        """One byte up the done pipe, waited for in timed slices. The pipe
        closes when the helper exits, and every slice checks its exit
        status, so a dead helper is a :class:`SolverError` naming how it
        died within one slice."""
        import select

        assert self._done is not None
        while True:
            ready, _, _ = select.select([self._done], [], [], LIVENESS_SLICE_S)
            if ready and os.read(self._done, 1):
                return
            if ready or self._reap(block=False):  # its end closed: it is exiting
                raise self._death()

    def _reap(self, block: bool) -> bool:
        """Whether the helper has exited, reaping it on the way."""
        assert self._pid is not None
        if self._status is None:
            pid, status = os.waitpid(self._pid, 0 if block else os.WNOHANG)
            if pid:
                self._status = status
        return self._status is not None

    def _death(self) -> SolverError:
        """The error naming how the helper died, once it is reaped."""
        from repro.engine.mp import _describe_exit

        self._reap(block=True)
        assert self._status is not None
        how = _describe_exit(os.waitstatus_to_exitcode(self._status))
        return SolverError(f"sweep helper (pid {self._pid}) died ({how})")

    def close(self, clean: bool) -> None:
        """Stop and reap the helper — asked to exit after a clean solve,
        killed after a failed one — and restore the caller's mask."""
        import select
        import signal

        try:
            if self._go is not None:
                os.close(self._go)  # the helper's EOF: time to exit
                self._go = None
            if self._pid is not None and self._status is None:
                assert self._done is not None
                if not clean or not select.select([self._done], [], [], REAP_TIMEOUT_S)[0]:
                    os.kill(self._pid, signal.SIGKILL)
                self._reap(block=True)
            if self._done is not None:
                os.close(self._done)
                self._done = None
            record = self.record
            if self._pid is not None:  # direction 1's buffers went with the helper
                self.sweeper.workspace = SweepWorkspace()
            if self._shared is not None:
                gather, steps, reduce = self._shared.seconds.tolist()
                record.helper_gather_seconds = gather
                record.helper_lockstep_seconds = steps
                record.helper_reduce_seconds = reduce
                self._shared = None
            elif record.reason is None:  # the helper was never needed
                record.reason = MASKED if self._masked else ONE_SWEEP
        finally:
            if self._mask is not None:
                os.sched_setaffinity(0, self._mask)
                self._mask = None


def _helper_main(split: DirectionSplit, cpu: int, go: int, done: int, caller: int) -> None:
    """The helper process: sweep direction 1 each time a byte comes down
    the go pipe; return at the pipe's EOF or when the caller is gone."""
    import select
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller decides when to stop
    for fd in (split._go, split._done):  # the caller's ends: EOF must mean it closed them
        if fd is not None:
            os.close(fd)
    os.sched_setaffinity(0, {cpu})
    sweeper, shared = split.sweeper, split._shared
    assert shared is not None
    plan, work = sweeper.plan, sweeper.workspace
    work.drop(0)
    sigma_t, evaluator = sweeper.terms.sigma_t_safe, sweeper.evaluator
    num_fsrs = sweeper.terms.num_regions
    capture = None if sweeper.current_tally is None else sweeper.current_tally.capture
    table = plan.pos_expf(sigma_t, evaluator)  # the first sweep's, inherited

    def expf_at(d: int, lo: int, hi: int) -> np.ndarray:
        return plan.pos_expf_block(sigma_t, evaluator, d, lo, hi)

    while True:
        ready, _, _ = select.select([go], [], [], LIVENESS_SLICE_S)
        if not ready:
            if os.getppid() != caller:
                return
            continue
        if not os.read(go, 1):
            return
        entered = time.perf_counter()
        work.load(plan, 1, shared.psi, shared.source)
        gathered = time.perf_counter()
        lockstep(work, 1, table, expf_at, capture)
        work.store(plan, 1, shared.psi)
        stepped = time.perf_counter()
        shared.bins[...] = work.bins(plan, 1, num_fsrs)
        if capture is not None:
            shared.crossings[...] = capture.out[1]
        shared.seconds += (gathered - entered, stepped - gathered, time.perf_counter() - stepped)
        os.write(done, b"\1")
