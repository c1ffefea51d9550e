"""How many processes one process may keep busy: the one CPU budget.

Three parts of the program fork for throughput — the serve farm's solve
slots (:mod:`repro.serve.slots`), a scenario batch's shares
(:mod:`repro.scenario.batch`) and a lone 2D solve's backward-direction
helper (:mod:`repro.runtime.sweep_split`) — and all three size
themselves with :func:`cpu_budget`. Nothing but the affinity mask and the
platform sizes it: no flag, config key or environment variable.
"""

from __future__ import annotations

import os
import sys
from typing import NamedTuple

#: Why a budget is one process.
NO_FORK = "no fork"
DAEMONIC = "daemonic"
ONE_CPU = "1 usable CPU"


class CpuBudget(NamedTuple):
    """``processes`` this one may run work on, itself included, and — when
    that is one — why (``None`` otherwise)."""

    processes: int
    why_one: str | None


def cpu_budget() -> CpuBudget:
    """One process per CPU of this process's affinity mask — or one where
    it cannot have forked children: no ``fork`` (the start method exists
    where ``os.fork`` does), or a daemonic ``multiprocessing`` process,
    which it refuses children.

    ``multiprocessing`` is read from ``sys.modules``, never imported: a
    process it did not start and that never imported it is not its
    daemon, and a CLI run that never forks should not pay its import.
    """
    if not hasattr(os, "fork"):
        return CpuBudget(1, NO_FORK)
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return CpuBudget(1, DAEMONIC)
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return CpuBudget(cpus, ONE_CPU if cpus < 2 else None)
