"""Warm-engine and shared-memory pooling for resident solve processes.

A batch run builds its engine, maps a fresh shared-memory arena, solves
once and unlinks everything. A long-lived solver process — each solve
slot of :mod:`repro.serve` (:mod:`repro.serve.slots`) builds one
:class:`EnginePool` for itself — answers many solve requests, so this
module keeps the expensive parts resident between requests:

* :class:`ArenaPool` — recycles :class:`~repro.engine.shm.ShmArena`
  segments by field layout. Mapping a segment costs a ``shm_open`` +
  ``mmap`` + page faults on first touch; a recycled arena's pages are
  already faulted in, so repeat requests skip that entirely. Reused
  arenas are zeroed (:meth:`~repro.engine.shm.ShmArena.reset`) before
  hand-off, which keeps pooled solves bitwise-identical to fresh ones.
* :class:`EnginePool` — caches :class:`~repro.engine.base.ExecutionEngine`
  instances by (name, workers, timeout, pinning) and attaches the shared
  arena pool to the multiprocess ones. A pooled engine instance flows
  through :func:`~repro.engine.registry.resolve_engine` unchanged, so the
  application layer needs no special casing.

Worker *processes* are not pooled: the mp engines move the problem to the
workers by ``fork`` inheritance (tracking products and sweep plans are
process-private), so workers are per-solve by construction. What survives
across requests is everything fork makes cheap to rebuild around: the
engine objects, their configuration, and the shared segments.

Both pools are thread-safe, so threads of one process may acquire
engines and arenas concurrently; nothing is shared *between* processes —
two slots each warm their own pools.
"""

from __future__ import annotations

import threading
from typing import Mapping

from repro.engine.base import ExecutionEngine
from repro.engine.shm import ShmArena

#: Field-layout key: the arena is interchangeable with any other arena
#: holding the same named shapes, regardless of dict insertion order.
LayoutKey = tuple[tuple[str, tuple[int, ...]], ...]


def layout_key(fields: Mapping[str, tuple[int, ...]]) -> LayoutKey:
    return tuple(sorted((name, tuple(shape)) for name, shape in fields.items()))


class ArenaPool:
    """Recycles shared-memory arenas by field layout.

    ``acquire`` returns ``(arena, hit)`` — a zeroed recycled arena when
    one with the same layout is free, else a fresh mapping. ``release``
    returns an arena to the pool (or unlinks it once the pool holds
    ``max_free`` idle arenas — a server solving many distinct problem
    sizes must not accumulate segments without bound).
    """

    def __init__(self, max_free: int = 8) -> None:
        if max_free < 0:
            raise ValueError(f"max_free must be >= 0 (got {max_free})")
        self.max_free = int(max_free)
        self._lock = threading.Lock()
        self._free: dict[LayoutKey, list[ShmArena]] = {}
        self._num_free = 0
        self._closed = False
        self.hits = 0
        self.misses = 0

    def acquire(self, fields: Mapping[str, tuple[int, ...]]) -> tuple[ShmArena, bool]:
        key = layout_key(fields)
        with self._lock:
            stack = self._free.get(key)
            if stack:
                arena = stack.pop()
                self._num_free -= 1
                self.hits += 1
                hit = True
            else:
                arena = None
                self.misses += 1
                hit = False
        if arena is None:
            return ShmArena(dict(fields)), False
        arena.reset()
        return arena, hit

    def release(self, arena: ShmArena) -> None:
        key = layout_key(arena.fields)
        with self._lock:
            if not self._closed and self._num_free < self.max_free:
                self._free.setdefault(key, []).append(arena)
                self._num_free += 1
                arena = None  # type: ignore[assignment]
        if arena is not None:
            arena.close(unlink=True)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "free": self._num_free}

    def close(self) -> None:
        """Unlink every pooled segment; later releases unlink immediately."""
        with self._lock:
            arenas = [a for stack in self._free.values() for a in stack]
            self._free.clear()
            self._num_free = 0
            self._closed = True
        for arena in arenas:
            arena.close(unlink=True)


class EnginePool:
    """Caches warm engine instances and wires them to a shared arena pool.

    Engines are keyed by their full construction signature, so two
    requests differing only in worker count get distinct instances. The
    engines themselves are re-entrant (``solve`` keeps all state in
    locals), so concurrent requests may share one instance safely.
    """

    def __init__(self, arena_pool: ArenaPool | None = None) -> None:
        self.arena_pool = arena_pool if arena_pool is not None else ArenaPool()
        self._lock = threading.Lock()
        self._engines: dict[tuple, ExecutionEngine] = {}

    def get(
        self,
        engine: str | ExecutionEngine | None = None,
        workers: int | None = None,
        timeout: float | None = None,
        pin_workers: bool = False,
    ) -> ExecutionEngine:
        from repro.engine.registry import resolve_engine

        if isinstance(engine, ExecutionEngine):
            return engine
        key = (engine, workers, timeout, bool(pin_workers))
        with self._lock:
            cached = self._engines.get(key)
        if cached is not None:
            return cached
        built = resolve_engine(
            engine, workers=workers, timeout=timeout, pin_workers=pin_workers
        )
        if hasattr(built, "arena_pool"):
            built.arena_pool = self.arena_pool  # type: ignore[attr-defined]
        with self._lock:
            # A racing builder may have landed first; keep the winner so
            # every caller sees one instance per signature.
            return self._engines.setdefault(key, built)

    def close(self) -> None:
        with self._lock:
            self._engines.clear()
        self.arena_pool.close()
