"""Manifest-keyed LIRS cache of finished run reports.

The key is :func:`~repro.observability.manifest.config_hash` over the
request's full validated configuration — the same hash the
:class:`~repro.observability.manifest.RunManifest` pins — so two requests
share an entry exactly when a report diff would call them the same run.
Entries store the *pristine* report payload (the ``to_dict`` form, before
any service annotation) plus a private copy of the scalar flux; hits
rebuild a fresh :class:`~repro.observability.record.RunReport` from the
payload, so no caller can mutate the cached truth.

Capacity is bounded by LIRS (Jiang & Zhang, SIGMETRICS 2002), which
ranks a key by the gap between its last two uses rather than by its last
use alone. A key that recurs inside the working set (LIR) stays resident;
a key seen once, or recurring only after a long gap (HIR), passes through
a small resident queue and is evicted first. Under LRU every key of a
cyclic working set larger than the cache re-misses; under LIRS most of
the keys that recur at all stay. The recency stack also remembers up to
``capacity`` evicted (non-resident) keys, so a key that comes back soon
after its eviction is recognised as recurring. ``put`` reports how many
evictions the insert caused so the service can attribute them to the
request that triggered them (the ``report_cache_evictions`` counter).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.observability.record import RunReport

#: Percent of the capacity held by the resident-HIR queue (at least one).
HIR_PERCENT = 1


@dataclass
class CacheEntry:
    """One cached solve: report payload + the flux the report describes."""

    report_payload: dict[str, Any]
    scalar_flux: np.ndarray

    def report(self) -> RunReport:
        """A fresh, independently mutable report built from the payload."""
        return RunReport.from_dict(self.report_payload)

    def flux(self) -> np.ndarray:
        return self.scalar_flux.copy()


class ReportCache:
    """Thread-safe LIRS cache of :class:`CacheEntry` keyed by config hash.

    State: ``_entries`` holds every resident key; ``_lir`` the resident
    keys of low inter-reference recency (at most ``capacity`` minus the
    queue's share); ``_queue`` the resident HIR keys, oldest first;
    ``_stack`` the recency stack, bottom (least recent) first, whose
    bottom is kept an LIR key; ``_ghosts`` the keys in the stack that are
    no longer resident.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0 (got {capacity})")
        self.capacity = int(capacity)
        self._hir_capacity = max(1, self.capacity * HIR_PERCENT // 100)
        self._lir_capacity = max(0, self.capacity - self._hir_capacity)
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}
        self._lir: set[str] = set()
        self._queue: "OrderedDict[str, None]" = OrderedDict()
        self._stack: "OrderedDict[str, None]" = OrderedDict()
        self._ghosts: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> CacheEntry | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._touch(key)
            self.hits += 1
            return entry

    def put(self, key: str, entry: CacheEntry) -> int:
        """Insert (or refresh) ``key``; returns evictions this caused."""
        evicted = 0
        with self._lock:
            if self.capacity == 0:
                return 0
            if key in self._entries:
                self._entries[key] = entry
                self._touch(key)
                return 0
            while len(self._entries) >= self.capacity:
                self._evict()
                evicted += 1
            self._entries[key] = entry
            if len(self._lir) < self._lir_capacity:  # filling: no ghosts yet
                self._lir.add(key)
                self._push(key)
            elif key in self._ghosts:
                # Back within the stack's reach: its reuse gap beats the
                # bottom LIR key's, which goes to the queue in its place.
                self._ghosts.discard(key)
                self._promote(key)
            else:
                self._push(key)
                self._queue[key] = None
            while len(self._ghosts) > self.capacity:
                ghost = next(k for k in self._stack if k in self._ghosts)
                del self._stack[ghost]
                self._ghosts.discard(ghost)
            self.evictions += evicted
        return evicted

    # ------------------------------------------------------------ policy

    def _touch(self, key: str) -> None:
        """A use of resident ``key``."""
        if key in self._lir:
            self._push(key)
            self._prune()
        elif key in self._stack:
            del self._queue[key]
            self._promote(key)
        else:
            self._push(key)
            self._queue.move_to_end(key)

    def _push(self, key: str) -> None:
        """Move ``key`` to the top of the recency stack."""
        self._stack[key] = None
        self._stack.move_to_end(key)

    def _promote(self, key: str) -> None:
        """Make ``key`` LIR at the top of the stack; the LIR keys over the
        share go, bottom first, to the queue's tail as resident HIR."""
        self._lir.add(key)
        self._push(key)
        while len(self._lir) > self._lir_capacity:
            self._prune()
            bottom = next(iter(self._stack))
            del self._stack[bottom]
            self._lir.discard(bottom)
            self._queue[bottom] = None
        self._prune()

    def _prune(self) -> None:
        """Drop HIR keys from the stack's bottom until an LIR key is
        there; a ghost dropped so is forgotten."""
        while self._stack:
            bottom = next(iter(self._stack))
            if bottom in self._lir:
                return
            del self._stack[bottom]
            self._ghosts.discard(bottom)

    def _evict(self) -> None:
        """Evict the oldest resident HIR key; it stays in the stack, if it
        is there, as a ghost."""
        key, _ = self._queue.popitem(last=False)
        del self._entries[key]
        if key in self._stack:
            self._ghosts.add(key)

    # ------------------------------------------------------------- views

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def policy_stats(self) -> dict[str, int]:
        """The LIRS state: resident LIR and HIR keys, remembered ghosts."""
        with self._lock:
            return {
                "lir": len(self._lir),
                "hir": len(self._queue),
                "nonresident": len(self._ghosts),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._lir.clear()
            self._queue.clear()
            self._stack.clear()
            self._ghosts.clear()
