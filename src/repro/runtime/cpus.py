"""Forked children: how many one process may keep busy, and every
decision about their lives.

Four parts of the program fork for throughput: the serve farm's solve
slots (:mod:`repro.serve.slots`), a scenario batch's shares
(:mod:`repro.scenario.batch`), the ``mp`` engines' workers
(:mod:`repro.engine.mp`) and a lone 2D solve's sweep helper
(:mod:`repro.runtime.sweep_split`). For all four this module decides how
many (:func:`cpu_budget`, one per CPU of the affinity mask; nothing else
sizes it), whether this process may fork (:func:`why_no_fork`) and
whether it is a forked child (:func:`is_forked_child`), how a child
starts (:func:`start`, on ``multiprocessing``'s ``fork`` context), how it
shares arrays with its parent (:class:`Arena`: anonymous shared memory,
no ``/dev/shm`` name), how its answer is heard and its death named
(:func:`wait` blocks on ``[pipe, process sentinel]``, :func:`heard` reads
the one answer, :func:`died` reaps and names a death; :func:`answer` /
:func:`receive` for a child whose answer is a return value) and how
children end (:func:`reap`: those asked to stop get :data:`GRACE_S`, the
rest are killed, all are joined).

**Threads beside the children.** A process that solves while its
children sweep keeps its own BLAS work on one thread:
:func:`blas_threads` sets the thread count of the OpenBLAS numpy loaded
for the length of a block (the CMFD coarse solve runs under
``blas_threads(1)``), so no pool spins beside the children and no result
follows the number of CPUs. This module is the one importer of
``ctypes`` (``prctl``, ``malloc_trim``, the BLAS thread count).

**The orphan rule.** A child that serves one solve dies with the thread
that forked it (``PR_SET_PDEATHSIG``, then a ``getppid`` check for a
parent already gone), well within one :data:`LIVENESS_SLICE_S`. Solve
slots keep their pipe-EOF rule instead: a slot is respawned from a solver
thread that may exit before it. A slot that waits on children of its own
(an ``mp`` job's workers) also asks :func:`orphaned` before each wait,
so a dead server stops it mid-job, not at its next pipe write. ``multiprocessing`` is imported by the first fork and
``mmap`` by the first arena, so a CLI run that never forks pays for
neither.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import signal
import sys
import threading
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from repro.errors import CommunicationError, ReproError
from repro.io.logging_utils import get_logger

if TYPE_CHECKING:
    import ctypes
    from multiprocessing.process import BaseProcess

    import numpy as np

#: Why a budget is one process.
NO_FORK = "no fork"
DAEMONIC = "daemonic"
ONE_CPU = "1 usable CPU"

#: How long children asked to stop get to exit before they are killed.
GRACE_S = 5.0
#: The longest a parent's wait on its children (or on a barrier they
#: share) blocks before it checks that they are alive.
LIVENESS_SLICE_S = 0.2
#: Arena field alignment: one x86-64 cache line, so no two fields that
#: different processes write share one.
_ALIGN = 64

_LOG = get_logger("repro.runtime")


class CpuBudget(NamedTuple):
    """``processes`` this one may run work on, itself included, and — when
    that is one — why (``None`` otherwise)."""

    processes: int
    why_one: str | None


def cpu_budget() -> CpuBudget:
    """One process per CPU of the affinity mask, or one where this
    process may not fork."""
    why = why_no_fork()
    if why is not None:
        return CpuBudget(1, why)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return CpuBudget(cpus, ONE_CPU if cpus < 2 else None)


def why_no_fork() -> str | None:
    """Why this process may not fork: no ``fork`` start method, or a
    daemonic ``multiprocessing`` child. ``multiprocessing`` is read from
    ``sys.modules``, never imported: a process that never imported it is
    not its daemon."""
    mp = sys.modules.get("multiprocessing")
    if not hasattr(os, "fork") or (mp is not None and "fork" not in mp.get_all_start_methods()):
        return NO_FORK
    return DAEMONIC if mp is not None and mp.current_process().daemon else None


def orphaned() -> bool:
    """Whether this process is a forked child whose parent has exited (it
    was re-parented): a solve slot outliving its server."""
    mp = sys.modules.get("multiprocessing")
    parent = None if mp is None else getattr(mp.current_process(), "parent", None)
    return parent is not None and os.getppid() != parent


def is_forked_child() -> bool:
    """Whether a fork made this process: a slot, a share, an engine
    worker or a sweep helper."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.parent_process() is not None


def fork_context(error: type[Exception]) -> Any:
    """The ``fork`` context children start on; ``error`` when this
    process may not fork."""
    import multiprocessing

    why = why_no_fork()
    if why is not None:
        raise error(
            f"cannot fork ({why}): children need the 'fork' start method; "
            f"platform offers {multiprocessing.get_all_start_methods()}"
        )
    return multiprocessing.get_context("fork")


@functools.cache
def _process_class() -> Any:
    from multiprocessing.context import ForkProcess

    class ForkedChild(ForkProcess):
        def __init__(self, orphan_rule: bool, **kwargs: Any) -> None:
            super().__init__(**kwargs)
            self.orphan_rule = orphan_rule
            self.parent = os.getpid()

        def run(self) -> None:
            if self.orphan_rule:  # SIGKILL when the forking thread exits
                import ctypes

                prctl = getattr(ctypes.CDLL(None), "prctl", None)
                if prctl is not None:
                    prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
                if os.getppid() != self.parent:  # it exited before that
                    os.kill(os.getpid(), signal.SIGKILL)
            super().run()

    return ForkedChild


def start(
    target: Callable[..., object],
    args: tuple[Any, ...],
    *,
    name: str,
    daemon: bool = False,
    ends: Iterable[Any] = (),
    orphan_rule: bool = True,
) -> BaseProcess:
    """Fork a child running ``target(*args)``, once :func:`cpu_budget` or
    :func:`fork_context` allowed it. ``ends`` — the child's pipe ends,
    ``Connection`` objects or file descriptors — are closed here once it
    holds them, so the parent reads EOF when the child is gone.
    ``orphan_rule=False`` is for solve slots only."""
    process: BaseProcess = _process_class()(
        orphan_rule, target=target, args=args, name=name, daemon=daemon
    )
    process.start()
    for end in ends:
        if isinstance(end, int):
            os.close(end)
        else:
            end.close()
    return process


class Arena(Mapping[str, "np.ndarray"]):
    """Named float64 arrays a parent shares with the children it forks.

    One anonymous ``MAP_SHARED`` mapping, carved into fields by name, each
    aligned to :data:`_ALIGN` bytes and zeroed (the kernel hands out zero
    pages); a zero-size field takes no room. Children inherit the mapping
    across ``fork``, so parent and children address the same pages. It
    has no name, so there is nothing to unlink or leak: the memory goes
    when the last view in the last process does.

    A field whose size is only known after the fork is named in ``later``:
    it is an anonymous memory file (``memfd``) made here, so the children
    inherit its descriptor, and :meth:`lay_out` sizes and maps it in each
    process once that process knows the shape. It is not a key until then.
    """

    def __init__(
        self, fields: Mapping[str, tuple[int, ...]], later: Iterable[str] = ()
    ) -> None:
        import mmap
        import weakref

        import numpy as np

        if not fields:
            raise CommunicationError("shared arena needs at least one field")
        offsets: dict[str, int] = {}
        cursor = 0
        for name, shape in fields.items():
            offsets[name] = cursor
            cursor += -(-8 * math.prod(shape) // _ALIGN) * _ALIGN
        self._map = mmap.mmap(-1, max(cursor, _ALIGN))
        self._views = {
            name: np.ndarray(shape, np.float64, self._map, offsets[name])
            for name, shape in fields.items()
        }
        self._later = {
            name: os.memfd_create(f"repro-arena-{name}", os.MFD_CLOEXEC) for name in later
        }
        # The descriptors of fields never laid out close with the arena.
        weakref.finalize(self, _close_all, self._later)

    def lay_out(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Map the ``later`` field ``name`` with ``shape`` in this process.

        The first process to lay it out sizes the file; every other maps
        the same pages. So the parent lays it out first, after the fork,
        and tells its children the shape, which they pass here in turn.
        """
        import mmap

        import numpy as np

        fd = self._later.pop(name)
        try:
            nbytes = max(8 * math.prod(shape), _ALIGN)
            if os.fstat(fd).st_size < nbytes:
                os.ftruncate(fd, nbytes)
            view = np.ndarray(shape, np.float64, mmap.mmap(fd, nbytes))
        finally:
            os.close(fd)
        self._views[name] = view
        return view

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    @property
    def nbytes(self) -> int:
        return len(self._map)


def _close_all(descriptors: dict[str, int]) -> None:
    for fd in descriptors.values():
        os.close(fd)
    descriptors.clear()


def wait(process: BaseProcess, conn: Any, timeout: float | None = None) -> bool:
    """Block until ``conn`` (a ``Connection`` or file descriptor) is
    readable — ``True`` — or ``process`` has exited, or ``timeout``
    seconds have passed."""
    from multiprocessing import connection

    return conn in connection.wait([conn, process.sentinel], timeout)


def heard(conn: Any) -> Any:
    """The one message on ``conn``, once :func:`wait` found it readable;
    ``None`` when it was closed unsent (its child is gone)."""
    try:
        return conn.recv()
    except EOFError:
        return None


def died(process: BaseProcess) -> str:
    """Reap ``process`` and say how it ended."""
    process.join()
    code = process.exitcode
    assert code is not None
    if code >= 0:
        return f"exit code {code}"
    try:
        return f"killed by {signal.Signals(-code).name}"
    except ValueError:
        return f"killed by signal {-code}"


def trim_heap() -> None:
    """Hand the free pages of this process's ``malloc`` heap back to the
    system (glibc's ``malloc_trim``; nothing where there is none). Large
    numpy temporaries freed in the middle of the heap stay resident
    otherwise, so a build followed by a solve would carry the build's
    transients under the solve's working set."""
    import ctypes

    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


#: Thread-count getters of the OpenBLAS builds numpy loads, in the order
#: they are looked for.
BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
#: Held while the thread count is changed, so two threads' blocks cannot
#: restore each other's count mid-block; re-entrant for a nested block.
_BLAS_LOCK = threading.RLock()


@functools.cache
def blas_pool() -> ctypes.c_int | None:
    """The thread count of the OpenBLAS mapped into this process (numpy's)
    as a writable C ``int``, or ``None`` where there is none to write.

    It is the library's ``blas_cpu_number``, taken only once one of
    :data:`BLAS_THREAD_GETTERS` is seen to read back a 1 written to it.
    It is written directly, not through ``openblas_set_num_threads``: a
    fork shuts the pool down in parent and child alike (OpenBLAS's fork
    handler), and the setter starts it again, a thread that spins about
    0.1 s of CPU beside the siblings, once per fork. At a count of one
    every call runs on the calling thread and nothing starts the pool.
    Looked up once per process, by the first caller."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            rows = [line.split() for line in maps]
    except OSError:  # no procfs: nothing to find
        return None
    paths = dict.fromkeys(
        row[-1] for row in rows if len(row) >= 6 and "openblas" in row[-1].rsplit("/", 1)[-1]
    )
    for path in paths:
        try:
            library = ctypes.CDLL(path)
            count = ctypes.c_int.in_dll(library, "blas_cpu_number")
        except (OSError, ValueError):  # not loadable, or no such symbol
            continue
        for name in BLAS_THREAD_GETTERS:
            get = getattr(library, name, None)
            if get is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            with _BLAS_LOCK:  # probe with 1: never more threads than exist
                before = count.value
                count.value = 1
                reads = get()
                count.value = before
            if reads == 1 and get() == before:
                return count
    return None


@contextlib.contextmanager
def blas_threads(count: int) -> Iterator[bool]:
    """Run the block with OpenBLAS on at most ``count`` threads
    (:func:`blas_pool`) and restore its count after: never more than it
    had, since only the setter starts the threads a higher count needs.
    Yields whether it could: without a count to write the block runs on
    whatever threads BLAS has."""
    pool = blas_pool()
    if pool is None:
        yield False
        return
    with _BLAS_LOCK:
        before = pool.value
        pool.value = min(count, before)
        try:
            yield True
        finally:
            pool.value = before


def reap(processes: Iterable[BaseProcess], asked: bool) -> None:
    """Join ``processes``: if ``asked`` to stop, they get :data:`GRACE_S`
    together to exit; whichever has not is killed."""
    processes = list(processes)
    deadline = time.monotonic() + (GRACE_S if asked else 0.0)
    for process in processes:
        process.join(max(0.0, deadline - time.monotonic()))
    for process in processes:
        if process.exitcode is None:
            process.kill()
            process.join()


def answer(conn: Any, work: Callable[..., object], *args: Any) -> None:
    """Body of a child with one answer: ``work(*args)``'s outcome, sent up
    ``conn`` once — a library error as its class and message, anything
    else as a traceback."""
    try:
        message: tuple[Any, ...] = ("done", work(*args))
    except ReproError as exc:
        message = ("raised", type(exc), str(exc))
    except Exception:  # the process boundary: the parent raises it by name
        _LOG.error("forked child %d crashed", os.getpid())
        message = ("crashed", traceback.format_exc())
    conn.send(message)
    conn.close()


def receive(process: BaseProcess, conn: Any, who: str, error: type[Exception]) -> Any:
    """The answer of a child running :func:`answer`, or a raise naming
    ``who``: ``error`` saying how it died or carrying its traceback, or
    its own library error."""
    message = heard(conn) if wait(process, conn) else None
    if message is None:
        raise error(f"{who} died ({died(process)})")
    if message[0] == "raised":
        raise message[1](f"{who}: {message[2]}")
    if message[0] == "crashed":
        raise error(f"{who} failed:\n{message[1]}")
    return message[1]
