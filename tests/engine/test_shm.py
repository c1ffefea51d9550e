"""The shared arena backing the mp engines and the sweep helper.

The arena is the one object whose miscomputed offsets would corrupt a
sibling field, so its contract is pinned here in isolation: layout and
alignment, zero-initialisation, zero-size fields, no ``/dev/shm`` name,
and cross-``fork`` visibility.
"""

import multiprocessing

import numpy as np
import pytest

from repro.errors import CommunicationError
from repro.runtime.cpus import Arena
from tests.processes import shm_entries

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shared arena cross-process tests require the fork start method",
)


class TestLayout:
    def test_fields_shaped_zeroed_and_aligned(self):
        arena = Arena({"a": (3, 4), "b": (7,)})
        assert arena["a"].shape == (3, 4)
        assert arena["b"].shape == (7,)
        assert not arena["a"].any() and not arena["b"].any()
        for name in ("a", "b"):
            view = arena[name]
            assert view.ctypes.data % 64 == 0
            assert view.dtype == np.float64
        a = arena["a"]
        a[1, 2] = 5.0
        assert arena["a"][1, 2] == 5.0  # views alias one buffer

    def test_fields_do_not_overlap(self):
        """Writing one field to a sentinel leaves every other field zero."""
        fields = {"x": (5,), "y": (2, 3), "z": (1,)}
        arena = Arena(fields)
        for victim in fields:
            arena[victim].fill(7.0)
            for other in fields:
                if other != victim:
                    assert not arena[other].any(), (victim, other)
            arena[victim].fill(0.0)

    def test_nbytes_covers_aligned_fields(self):
        arena = Arena({"a": (3,), "b": (1,)})
        # Two fields, each rounded up to a 64-byte cache line.
        assert arena.nbytes >= 128

    def test_minimum_one_cache_line(self):
        """Even a degenerate empty-shape field maps a full cache line."""
        arena = Arena({"a": ()})
        assert arena.nbytes >= 64
        assert arena["a"].shape == ()

    def test_zero_size_field_takes_no_room(self):
        """The sweep helper's crossings field is ``(0,)`` with CMFD off."""
        arena = Arena({"a": (2,), "none": (0,), "b": (3,)})
        assert arena["none"].shape == (0,)
        assert arena.nbytes == 128
        assert arena["b"].ctypes.data - arena["a"].ctypes.data == 64
        assert Arena({"none": (0,)})["none"].size == 0

    def test_unknown_field_rejected(self):
        arena = Arena({"a": (2,)})
        with pytest.raises(KeyError):
            arena["missing"]

    def test_empty_field_table_rejected(self):
        with pytest.raises(CommunicationError, match="at least one field"):
            Arena({})

    def test_maps_no_named_segment(self):
        """Anonymous memory: nothing appears in ``/dev/shm`` to unlink."""
        before = shm_entries()
        arena = Arena({"a": (1 << 16,)})
        arena["a"].fill(1.0)
        assert shm_entries() == before


class TestCrossProcess:
    @needs_fork
    def test_fork_child_writes_visible_in_parent(self):
        """Forked children address the same physical pages — a child's
        write lands in the parent's view without any message passing."""
        arena = Arena({"shared": (4,)})
        view = arena["shared"]

        def child():
            arena["shared"][2] = 42.0

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=30.0)
        assert proc.exitcode == 0
        assert view[2] == 42.0


class TestLateFields:
    """A field sized after the fork: a memory file the children inherit."""

    def test_not_a_field_until_laid_out(self):
        arena = Arena({"a": (2,)}, later=("late",))
        assert "late" not in arena and list(arena) == ["a"]
        view = arena.lay_out("late", (3, 2))
        assert view.shape == (3, 2) and not view.any()
        assert arena["late"] is view and list(arena) == ["a", "late"]

    def test_maps_no_named_segment(self):
        before = shm_entries()
        arena = Arena({"a": (1,)}, later=("late",))
        arena.lay_out("late", (1 << 16,)).fill(1.0)
        assert shm_entries() == before

    @needs_fork
    def test_parent_lays_out_after_the_fork_and_the_child_maps_it(self):
        """The parent sizes the field once the child runs; the child maps
        the same pages and its write lands in the parent's view."""
        ctx = multiprocessing.get_context("fork")
        arena = Arena({"shape": (2,)}, later=("late",))
        ready, go = ctx.Semaphore(0), ctx.Semaphore(0)

        def child():
            ready.release()
            go.acquire()
            rows, cols = (int(n) for n in arena["shape"])
            view = arena.lay_out("late", (rows, cols))
            view[rows - 1, cols - 1] = view[0, 0] + 1.0

        proc = ctx.Process(target=child)
        proc.start()
        assert ready.acquire(timeout=30.0)
        arena["shape"][:] = (5, 3)
        late = arena.lay_out("late", (5, 3))
        late[0, 0] = 41.0
        go.release()
        proc.join(timeout=30.0)
        assert proc.exitcode == 0
        assert late[4, 2] == 42.0
