"""Shared-memory SoA arena for the multiprocess engine.

One ``multiprocessing.shared_memory`` block carved into named float64
arrays (global scalar flux, the halo buffer, the control word), with every
field aligned to cache-line boundaries. Workers inherit the mapping across
``fork``, so parent and children address the *same* physical pages — the
halo exchange and flux reductions are zero-copy.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from repro.errors import CommunicationError

#: Field alignment; one x86-64 cache line, avoiding false sharing between
#: adjacent fields written by different processes.
_ALIGN = 64


class ShmArena:
    """A named bundle of float64 arrays over one shared-memory segment."""

    def __init__(self, fields: dict[str, tuple[int, ...]]) -> None:
        if not fields:
            raise CommunicationError("shared arena needs at least one field")
        offsets: dict[str, int] = {}
        cursor = 0
        for name, shape in fields.items():
            offsets[name] = cursor
            nbytes = int(np.prod(shape, dtype=np.int64)) * 8
            cursor += -(-nbytes // _ALIGN) * _ALIGN
        self._shm = shared_memory.SharedMemory(create=True, size=max(cursor, _ALIGN))
        self._views: dict[str, np.ndarray] = {}
        for name, shape in fields.items():
            self._views[name] = np.ndarray(
                shape, dtype=np.float64, buffer=self._shm.buf, offset=offsets[name]
            )
            self._views[name].fill(0.0)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    @property
    def nbytes(self) -> int:
        return self._shm.size

    def close(self, unlink: bool = True) -> None:
        """Drop the views and the mapping; ``unlink`` frees the segment.

        Only the creating (parent) process should unlink. Forked children
        merely inherit the mapping and release it implicitly at exit.
        """
        self._views.clear()
        try:
            self._shm.close()
        except BufferError:  # a live external view pins the mapping; leak-safe
            pass
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
