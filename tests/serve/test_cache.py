"""The manifest-keyed report cache: capacity bounds and pristine payloads.

The cache evicts by LIRS; its policy is tested in ``test_cache_policy.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.observability.counters import CounterSet
from repro.observability.manifest import RunManifest
from repro.observability.record import RunReport, RunResults
from repro.serve import CacheEntry, ReportCache


def make_entry(keff=1.25):
    report = RunReport(
        manifest=RunManifest(
            config_hash="c" * 64,
            git_rev="deadbeef",
            geometry="c5g7-mini",
            engine="inproc",
            backend="numpy",
            storage_method="EXP",
        ),
        results=RunResults(keff=keff, converged=True, num_iterations=5),
        counters=CounterSet(),
        stages={"transport_solving": 0.5},
    )
    return CacheEntry(
        report_payload=report.to_dict(),
        scalar_flux=np.full((4, 7), keff),
    )


class TestLru:
    """Bounds every policy must keep. The class and test names predate the
    move from LRU to LIRS and are kept as test ids."""

    def test_miss_then_hit(self):
        cache = ReportCache(capacity=4)
        assert cache.get("k1") is None
        cache.put("k1", make_entry())
        assert cache.get("k1") is not None
        assert cache.stats() == {
            "size": 1, "capacity": 4, "hits": 1, "misses": 1, "evictions": 0,
        }

    def test_capacity_evicts_least_recently_used(self):
        """A full cache evicts one key per new key. At capacity 2 the LIRS
        victim is the one resident HIR key, here also LRU's (see
        ``test_cache_policy.py::TestLirs::test_capacity_two_victim``)."""
        cache = ReportCache(capacity=2)
        cache.put("a", make_entry())  # the LIR key
        cache.put("b", make_entry())  # the resident HIR key
        assert cache.get("a") is not None
        evicted = cache.put("c", make_entry())
        assert evicted == 1
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_put_reports_evictions_it_caused(self):
        cache = ReportCache(capacity=1)
        assert cache.put("a", make_entry()) == 0
        assert cache.put("b", make_entry()) == 1
        assert cache.evictions == 1

    def test_capacity_zero_never_stores(self):
        cache = ReportCache(capacity=0)
        assert cache.put("a", make_entry()) == 0
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            ReportCache(capacity=-1)


class TestPristineness:
    def test_hits_cannot_mutate_the_cached_report(self):
        cache = ReportCache()
        cache.put("k", make_entry(keff=1.5))
        first = cache.get("k").report()
        first.results.keff = 999.0
        first.stages["vandalism"] = 1.0
        fresh = cache.get("k").report()
        assert fresh.results.keff == 1.5
        assert "vandalism" not in fresh.stages

    def test_hits_cannot_mutate_the_cached_flux(self):
        cache = ReportCache()
        cache.put("k", make_entry(keff=2.0))
        flux = cache.get("k").flux()
        flux[:] = -1.0
        assert np.all(cache.get("k").flux() == 2.0)

    def test_rebuilt_report_is_bitwise_stable(self):
        entry = make_entry(keff=1.1867431119348094)
        assert entry.report().to_dict() == entry.report_payload
