"""Structured logging helpers.

ANT-MOC's artifact analyses per-stage execution time and storage from run
logs. :class:`StageTimer` reproduces that habit: it records wall-clock time
per pipeline stage and can render the same kind of log fragment.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from typing import Iterator, Mapping


class _StderrHandler(logging.StreamHandler):
    """Writes each record to whatever ``sys.stderr`` is when it is emitted,
    so a redirect made after the logger was built
    (``contextlib.redirect_stderr``, a test's capture) receives its lines."""

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stderr  # under the handler lock (Handler.handle)
        super().emit(record)


def get_logger(name: str = "repro", level: str = "INFO") -> logging.Logger:
    """Return a configured library logger (idempotent)."""
    logger = logging.getLogger(name)
    if not logger.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("[%(levelname)s] %(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.propagate = False
    logger.setLevel(getattr(logging, level.upper(), logging.INFO))
    return logger


class StageTimer:
    """Accumulates named stage durations, mirroring ANT-MOC's run log.

    **Accumulate semantics.** Every entry point — :meth:`stage`,
    :meth:`record`, :meth:`merge` — *adds* to the named row; nothing ever
    overwrites. Re-entering ``stage("transport_solving")`` or calling
    ``record`` twice with the same name yields the sum of the
    contributions, which is what a restarted or multi-pass run should
    report. The flip side: reusing one timer across *logically separate*
    runs double-counts — a fresh run needs a fresh timer or an explicit
    :meth:`reset` (pinned by ``tests/io/test_logging.py``).
    """

    def __init__(self) -> None:
        self._durations: dict[str, float] = {}
        self._order: list[str] = []

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if name not in self._durations:
                self._order.append(name)
                self._durations[name] = 0.0
            self._durations[name] += elapsed

    def record(self, name: str, seconds: float) -> None:
        """Accumulate an externally measured (or simulated) duration."""
        if name not in self._durations:
            self._order.append(name)
            self._durations[name] = 0.0
        self._durations[name] += float(seconds)

    def reset(self) -> None:
        """Drop every recorded row, returning the timer to its fresh state.

        Use this when reusing a timer across logically separate runs —
        without it the accumulate semantics double-count the earlier run.
        """
        self._durations.clear()
        self._order.clear()

    def duration(self, name: str) -> float:
        return self._durations.get(name, 0.0)

    @property
    def total(self) -> float:
        """Sum over top-level stages.

        ``parent/child`` rows are breakdowns of time already counted in
        their parent stage, so they are excluded from the total.
        """
        return sum(
            seconds for name, seconds in self._durations.items() if "/" not in name
        )

    def as_dict(self) -> dict[str, float]:
        return {name: self._durations[name] for name in self._order}

    @classmethod
    def from_dict(cls, payload: Mapping[str, float]) -> "StageTimer":
        """Rebuild a timer from an :meth:`as_dict` payload (cross-process)."""
        timer = cls()
        for name, seconds in payload.items():
            timer.record(name, seconds)
        return timer

    def merge(
        self,
        other: "StageTimer | Mapping[str, float]",
        mode: str = "sum",
        prefix: str = "",
    ) -> "StageTimer":
        """Fold another timer (or its serialized payload) into this one.

        Stage names are kept verbatim (optionally prefixed), never
        renumbered or clobbered: ``sum`` accumulates durations per stage,
        ``max`` keeps the per-stage maximum. Worker timers aggregate into a
        parent report with one ``merge(..., "sum")`` pass for total CPU
        seconds and one ``merge(..., "max")`` pass for the critical path —
        the two are reported explicitly because on a work-balanced
        decomposition they differ by roughly the worker count.
        """
        if mode not in ("sum", "max"):
            raise ValueError(f"merge mode must be 'sum' or 'max' (got {mode!r})")
        payload = other.as_dict() if isinstance(other, StageTimer) else dict(other)
        for name, seconds in payload.items():
            key = prefix + name
            if mode == "sum" or key not in self._durations:
                self.record(key, float(seconds))
            else:
                self._durations[key] = max(self._durations[key], float(seconds))
        return self

    def report(self) -> str:
        """Render a per-stage timing table like ANT-MOC's log fragments."""
        width = max([30, *map(len, self._order)])
        lines = [f"{'stage':<{width}s} time (s)"]
        for name in self._order:
            lines.append(f"{name:<{width}s} {self._durations[name]:10.4f}")
        lines.append(f"{'TOTAL':<{width}s} {self.total:10.4f}")
        return "\n".join(lines)
