"""A lone 2D solve's two sweep directions on two processes.

Algorithm 1 makes every (track, direction) traversal of a sweep an
independent unit of work; ANT-MOC maps them onto GPU threads. A lone
single-domain 2D numpy solve would otherwise leave every CPU but one idle,
so :func:`split_sweep` hands its backward traversals (direction 1) to one
forked helper process while the caller sweeps the forward ones.

**Same bits.** The numpy kernel sums each direction's tally with its own
``bincount`` and adds ``bins(0)``, then ``bins(1)``, onto zeros
(:func:`~repro.solver.backends.numpy_backend.sweep_directions`).
The helper runs the same per-direction sweep on the same inputs and
hands back its exit flux, its bins and, with CMFD on, its captured
crossings; the caller adds the bins where it would have added its own.
Exchange and current fold stay in the caller, unchanged.

**When.** :func:`split_sweep` decides once per solve, before it starts,
and records why not (:attr:`SplitRecord.reason`): a decomposed, 3D or
non-numpy solve never splits, and neither does a process that is not
top-level (serve slots, scenario shares and engine workers run where a
parent already spends the CPUs), one that cannot fork, one with a single
usable CPU (:func:`~repro.runtime.cpus.cpu_budget`) or a solve whose
iteration budget is one sweep.

**Lifecycle.** The helper is forked at the first sweep, once the plan and
the one exp table both directions read exist and before the sweeper's
workspace is bound: caller and helper each bind their own
:class:`~repro.solver.backends.SweepWorkspace` and write only their own
direction's buffers, so neither process touches the other's and no
bound workspace is shared copy-on-write. For the solve, the helper is
pinned to one CPU of the caller's affinity mask and the caller keeps the
rest — unpinned, a woken helper often lands on its waker's CPU — and the
caller's mask is restored on every exit path. Per sweep the caller
publishes the reduced source and its direction-1 entry flux into a shared
:class:`~repro.runtime.cpus.Arena`, writes one byte down the *go* pipe
and sweeps direction 0; the helper answers with one byte up the *done*
pipe. The helper is a child like every other the program forks
(:mod:`repro.runtime.cpus`): the caller waits on ``[done pipe, helper
sentinel]``, so a dead helper is a :class:`~repro.errors.SolverError`
that names how it died at once; the helper exits at the go pipe's EOF,
dies with its caller (the orphan rule), lives for one solve and is reaped
on every exit path. ``multiprocessing`` and ``mmap`` are imported by a
solve that forks, not by every run that imports this module.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.errors import SolverError
from repro.io.logging_utils import get_logger
from repro.runtime.cpus import Arena, cpu_budget, died, is_forked_child, reap, start, wait
from repro.solver.backends import NumpySweepBackend, SweepWorkspace
from repro.solver.backends.numpy_backend import sweep_direction
from repro.solver.solver import MOCSolver, TransportSolver
from repro.solver.sweep2d import TransportSweep2D

if TYPE_CHECKING:
    from multiprocessing.process import BaseProcess

#: Why a solve swept on one process (besides the CPU budget's reasons).
DECOMPOSED = "decomposed"
THREE_D = "3D"
BACKEND = "backend"
NOT_TOP_LEVEL = "not top-level"
NO_AFFINITY = "affinity not settable"
ONE_SWEEP = "1 sweep"

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
    if is_forked_child():
        return NOT_TOP_LEVEL
    why = cpu_budget().why_one
    if why is None and solver.keff_solver.max_iterations <= 1:
        return ONE_SWEEP
    return why


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


class DirectionSplit:
    """The caller's end of one solve's backward-direction helper: what a
    :class:`~repro.solver.sweep2d.TransportSweep2D` hands its numpy kernel
    as ``SweepContext.remote``."""

    def __init__(self, sweeper: TransportSweep2D, record: SplitRecord) -> None:
        self.sweeper = sweeper
        self.record = record
        self._helper: BaseProcess | None = None
        self._mask: set[int] | None = None
        self._pipes: tuple[int, int] | None = None  # go (write end), done (read end)
        self._shared: Arena | None = None

    @property
    def _pid(self) -> int | None:
        """The helper's pid, once it is forked."""
        return None if self._helper is None else self._helper.pid

    def remote(self) -> "DirectionSplit | None":
        """Who sweeps the next sweep's direction 1: the helper (this
        split, forked at the first sweep), or ``None`` — this process —
        when pinning failed."""
        if self._pid is None and (self.record.reason is not None or not self._start()):
            return None
        return self

    def _start(self) -> bool:
        """Pin, build the exp table, then fork the helper over an unbound
        workspace; ``False`` (with the reason recorded) when the affinity
        mask cannot be set."""
        try:
            mask = os.sched_getaffinity(0)
            cpu = max(mask)
            os.sched_setaffinity(0, mask - {cpu})
        except (AttributeError, OSError, ValueError) as exc:
            self.record.reason = NO_AFFINITY
            _LOG.info("sweep split: %s (%s)", NO_AFFINITY, exc)
            return False
        self._mask = mask
        sweeper = self.sweeper
        sweeper.plan.pos_expf(sweeper.terms.sigma_t_safe, sweeper.evaluator)  # inherited, read-only
        sweeper.workspace = SweepWorkspace()  # each process binds its own
        capture = None if sweeper.current_tally is None else sweeper.current_tally.capture
        self._shared = Arena({  # what caller and helper exchange
            "source": (sweeper.terms.num_regions, sweeper.num_groups),  # reduced source
            "psi": sweeper.psi_in[:, 1].shape,  # direction 1's entry flux in, exit flux out
            "bins": (sweeper.terms.num_regions * sweeper.num_groups,),  # its tally bins
            "crossings": (0,) if capture is None else capture.out[1].shape,
            "seconds": (3,),  # its gather / lockstep / reduce phases
        })
        go_read, go = os.pipe()
        done, done_write = os.pipe()
        self._pipes = (go, done)
        self._helper = start(
            _helper_main, (self, cpu, go_read, done_write),
            name="repro-sweep-helper", ends=(go_read, done_write),
        )
        return True

    def release(self, psi: np.ndarray, source: np.ndarray) -> None:
        """Publish direction 1's entry flux and the reduced source, and
        let the helper sweep."""
        assert self._shared is not None and self._pipes is not None
        np.copyto(self._shared["source"], source)
        np.copyto(self._shared["psi"], psi)
        try:
            os.write(self._pipes[0], b"\1")
        except BrokenPipeError:  # the helper is gone
            raise self._death() from None

    def collect(self, psi: np.ndarray, capture: Any) -> np.ndarray:
        """Wait for the helper; its exit flux into ``psi``, its captured
        crossings into ``capture``; returns its flat tally bins."""
        assert self._shared is not None
        t0 = time.perf_counter()
        self._wait()
        self.record.wait_seconds += time.perf_counter() - t0
        np.copyto(psi, self._shared["psi"])
        if capture is not None:
            np.copyto(capture.out[1], self._shared["crossings"])
        return self._shared["bins"]

    def _wait(self) -> None:
        """One byte up the done pipe. The pipe closes and the helper's
        sentinel fires when it exits, so a dead helper is a
        :class:`SolverError` naming how it died at once."""
        assert self._helper is not None and self._pipes is not None
        done = self._pipes[1]
        if not wait(self._helper, done) or not os.read(done, 1):
            raise self._death()

    def _death(self) -> SolverError:
        """The error naming how the helper died, once it is reaped."""
        assert self._helper is not None
        return SolverError(f"sweep helper (pid {self._pid}) died ({died(self._helper)})")

    def close(self, clean: bool) -> None:
        """Stop and reap the helper — asked to exit after a clean solve,
        killed after a failed one — and restore the caller's mask."""
        try:
            for fd in self._pipes or ():  # the go pipe's EOF: the helper's time to exit
                os.close(fd)
            if self._helper is not None:
                reap([self._helper], asked=clean)
            if self._shared is not None:
                record = self.record
                gather, steps, reduce = self._shared["seconds"].tolist()
                record.helper_gather_seconds = gather
                record.helper_lockstep_seconds = steps
                record.helper_reduce_seconds = reduce
                self._shared = None
        finally:
            if self._mask is not None:
                os.sched_setaffinity(0, self._mask)
                self._mask = None


def _helper_main(split: DirectionSplit, cpu: int, go: int, done: int) -> None:
    """The helper process: sweep direction 1 each time a byte comes down
    the go pipe; return at the pipe's EOF."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller decides when to stop
    for fd in split._pipes or ():  # the caller's ends: EOF must mean it closed them
        os.close(fd)
    os.sched_setaffinity(0, {cpu})
    sweeper, shared = split.sweeper, split._shared
    assert shared is not None
    source, psi, bins, crossings, seconds = (
        shared[name] for name in ("source", "psi", "bins", "crossings", "seconds")
    )
    plan = sweeper.plan
    work = sweeper.workspace.bind(plan, psi.shape[1:])
    sigma_t, evaluator = sweeper.terms.sigma_t_safe, sweeper.evaluator
    num_fsrs = sweeper.terms.num_regions
    capture = None if sweeper.current_tally is None else sweeper.current_tally.capture
    table = plan.pos_expf(sigma_t, evaluator)  # built before the fork, inherited
    expf_at = partial(plan.pos_expf_block, sigma_t, evaluator)
    while os.read(go, 1):
        gather, steps = sweep_direction(work, plan, 1, psi, source, table, expf_at, capture)
        stepped = time.perf_counter()
        bins[...] = work.bins(plan, 1, num_fsrs)
        if capture is not None:
            crossings[...] = capture.out[1]
        seconds += (gather, steps, time.perf_counter() - stepped)
        os.write(done, b"\1")
