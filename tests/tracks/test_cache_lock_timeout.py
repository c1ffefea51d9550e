"""Regression: the writer-lock stale-break window is configurable.

The threshold used to be the hard-coded ``LOCK_STALE_SECONDS``; a crashed
writer on a shared cache directory therefore wedged every peer for a full
minute regardless of how fast their solves were. ``lock_timeout`` now
flows from ``tracking.cache_lock_timeout`` through
:func:`~repro.tracks.cache.resolve_cache` into the cache, serving as both
the stale-break threshold and the store's wait budget.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import ConfigError
from repro.io.config import config_from_dict
from repro.tracks.cache import LOCK_STALE_SECONDS, TrackingCache, resolve_cache


def foreign_lock(cache, trackgen, age=0.0):
    """Plant a lockfile as a concurrent writer would (a live process: this
    one), aged ``age`` seconds as a hung writer's would be."""
    lock = cache.path_for(trackgen).with_suffix(".lock")
    lock.parent.mkdir(parents=True, exist_ok=True)
    lock.write_text(f"{os.getpid()}\n")
    if age:
        past = time.time() - age
        os.utime(lock, (past, past))
    return lock


class TestConfigurableThreshold:
    def test_default_is_the_legacy_constant(self, tmp_path):
        assert TrackingCache(tmp_path).lock_timeout == LOCK_STALE_SECONDS

    def test_custom_window_breaks_stale_locks_sooner(self, tmp_path, small_trackgen):
        cache = TrackingCache(tmp_path, lock_timeout=0.2)
        lock = foreign_lock(cache, small_trackgen, age=5.0)
        started = time.monotonic()
        path = cache.store(small_trackgen)
        assert time.monotonic() - started < LOCK_STALE_SECONDS / 2
        assert path.exists()
        assert not lock.exists()  # the stale lock was broken, not waited out

    def test_fresh_lock_is_respected_for_the_whole_window(
        self, tmp_path, small_trackgen
    ):
        cache = TrackingCache(tmp_path, lock_timeout=0.3)
        foreign_lock(cache, small_trackgen, age=0.0)
        started = time.monotonic()
        path = cache.store(small_trackgen)
        waited = time.monotonic() - started
        # One window, two meanings: the peer's lock is honoured while it
        # is younger than the window, and only broken once it ages past
        # it — so the store blocks for roughly the window, no more.
        assert waited >= 0.25
        assert waited < LOCK_STALE_SECONDS / 2
        assert path.exists()

    def test_store_override_beats_the_instance_window(self, tmp_path, small_trackgen):
        cache = TrackingCache(tmp_path, lock_timeout=30.0)
        foreign_lock(cache, small_trackgen, age=0.0)
        started = time.monotonic()
        cache.store(small_trackgen, lock_timeout=0.2)
        assert time.monotonic() - started < 5.0

    def test_nonpositive_window_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            TrackingCache(tmp_path, lock_timeout=0.0)


class TestConfigPlumbing:
    def test_config_value_reaches_the_cache(self, tmp_path):
        config = config_from_dict(
            {
                "tracking": {
                    "tracking_cache": True,
                    "cache_dir": str(tmp_path),
                    "cache_lock_timeout": 2.5,
                }
            }
        )
        cache = resolve_cache(
            config.tracking.tracking_cache,
            config.tracking.cache_dir,
            lock_timeout=config.tracking.cache_lock_timeout,
        )
        assert cache.lock_timeout == 2.5

    def test_unset_config_value_keeps_the_default(self, tmp_path):
        config = config_from_dict({"tracking": {"tracking_cache": True}})
        cache = resolve_cache(
            True, str(tmp_path), lock_timeout=config.tracking.cache_lock_timeout
        )
        assert cache.lock_timeout == LOCK_STALE_SECONDS

    @pytest.mark.parametrize("bad", [0, -3.0, True, "fast"])
    def test_invalid_config_values_rejected(self, bad):
        with pytest.raises(ConfigError, match="cache_lock_timeout"):
            config_from_dict({"tracking": {"cache_lock_timeout": bad}})
