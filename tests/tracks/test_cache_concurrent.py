"""Concurrent-writer safety of the tracking cache.

N forked processes hammer one content-addressed key; the invariants are
that exactly one valid entry survives, it stays loadable throughout, and
no temp files are left behind. :class:`TestFaults` holds the
tracking-cache rows of DESIGN.md's fault model: a torn entry under
concurrent readers, a truncated entry, and a lock file some other writer
left in the directory.
"""

import logging
import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.tracks import TrackGenerator, TrackTable2D
from repro.tracks.cache import TrackingCache

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="stress test forks writer processes",
)


@pytest.fixture()
def cache(tmp_path):
    return TrackingCache(tmp_path / "cache")


def _hammer(cache, trackgen, stores_per_proc):
    for _ in range(stores_per_proc):
        path = cache.store(trackgen)
        assert path.exists()
    raise SystemExit(0)


class TestConcurrentStore:
    @needs_fork
    def test_many_writers_one_key(self, cache, small_trackgen, reflective_box):
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_hammer, args=(cache, small_trackgen, 5))
            for _ in range(6)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        entries = sorted(cache.cache_dir.glob("*"))
        assert [e.name for e in entries] == [cache.path_for(small_trackgen).name]
        # The surviving entry restores cleanly.
        fresh = TrackGenerator(
            reflective_box, num_azim=8, azim_spacing=0.5, num_polar=4
        )
        assert cache.load(fresh)
        assert len(fresh.tracks) == len(small_trackgen.tracks)

    def test_existing_entry_not_rewritten(self, cache, small_trackgen):
        first = cache.store(small_trackgen)
        stamp = os.stat(first).st_mtime_ns
        second = cache.store(small_trackgen)
        assert second == first
        assert os.stat(first).st_mtime_ns == stamp  # first wins, no rewrite



def _same_laydown(got, want) -> bool:
    got_table, want_table = got.track_table_2d(), want.track_table_2d()
    pairs = [
        (getattr(got_table, name), getattr(want_table, name))
        for name in TrackTable2D.columns()
    ] + [
        (got.segments.lengths, want.segments.lengths),
        (got.segments.fsr_ids, want.segments.fsr_ids),
        (got.segments.offsets, want.segments.offsets),
        (got.fsr_volumes, want.fsr_volumes),
    ]
    return all(
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        for a, b in pairs
    )


def _rewrite(cache, trackgen, seconds):
    """Writer: drop the entry and store it again, over and over."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        try:
            os.unlink(cache.path_for(trackgen))
        except FileNotFoundError:
            pass
        cache.store(trackgen)
    raise SystemExit(0)


def _read(cache, fresh, seconds):
    """Reader: every load is a miss or the fresh laydown, bit for bit, and
    no entry it opens is unreadable (an eviction would hide a torn one).
    Exit 0 when that held and at least one load hit."""
    evictions = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = evictions.append
    logging.getLogger("repro.tracks.cache").addHandler(handler)
    hits = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        got = TrackGenerator(fresh.geometry, num_azim=8, azim_spacing=0.5, num_polar=4)
        if cache.load(got):
            if not _same_laydown(got, fresh):
                raise SystemExit(2)
            hits += 1
    raise SystemExit(3 if evictions else 0 if hits else 4)


class TestFaults:
    @needs_fork
    def test_torn_entry_under_concurrent_readers(self, cache, small_trackgen):
        cache.store(small_trackgen)
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_rewrite, args=(cache, small_trackgen, 1.5))
            for _ in range(2)
        ] + [
            ctx.Process(target=_read, args=(cache, small_trackgen, 1.5))
            for _ in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert [p.exitcode for p in procs] == [0] * len(procs)
        assert [e.name for e in cache.cache_dir.iterdir()] == [
            cache.path_for(small_trackgen).name
        ]

    def test_truncated_entry_is_a_miss_deleted_then_rewritten(
        self, cache, small_trackgen, reflective_box
    ):
        path = cache.store(small_trackgen)
        whole = path.read_bytes()
        path.write_bytes(whole[: len(whole) // 2])

        def fresh():
            return TrackGenerator(reflective_box, num_azim=8, azim_spacing=0.5, num_polar=4)

        assert not cache.load(fresh())
        assert not path.exists()
        assert cache.store(small_trackgen) == path
        assert path.read_bytes() == whole
        hit = fresh()
        assert cache.load(hit) and _same_laydown(hit, small_trackgen)

    def test_leftover_lock_file_is_ignored(self, cache, small_trackgen):
        """A fresh ``<key>.lock`` naming a live process — as a writer that
        still takes per-key locks would leave it on a shared directory —
        neither delays the store nor is touched by it."""
        lock = cache.path_for(small_trackgen).with_suffix(".lock")
        cache.cache_dir.mkdir(parents=True)
        lock.write_text(f"{os.getpid()}\n")
        before = lock.stat()
        started = time.monotonic()
        path = cache.store(small_trackgen)
        assert time.monotonic() - started < 1.0
        assert path.exists()
        after = lock.stat()
        assert lock.read_text() == f"{os.getpid()}\n"
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
