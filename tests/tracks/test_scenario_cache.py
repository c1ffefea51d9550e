"""Tracking-cache interaction of scenario batches.

Perturbations are tracking-invariant by construction, so a whole batch —
whatever its perturbation set — maps to ONE cache entry: the first batch
stores once, every later batch (same geometry/tracking, any scenarios)
hits, and no state ever adds a miss of its own. Runs share the entry the
way every run does, through ``tracking.cache_dir``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.scenario import run_scenario_batch
from repro.tracks.cache import TrackingCache

from tests.scenario.conftest import batch_config


@pytest.fixture()
def traffic(monkeypatch):
    """Load/store calls on every :class:`TrackingCache` a run builds from
    its ``cache_dir``."""
    traffic = SimpleNamespace(loads=0, hits=0, stores=0)
    load, store = TrackingCache.load, TrackingCache.store

    def counted_load(self, trackgen):
        traffic.loads += 1
        hit = load(self, trackgen)
        traffic.hits += int(hit)
        return hit

    def counted_store(self, *args, **kwargs):
        traffic.stores += 1
        return store(self, *args, **kwargs)

    monkeypatch.setattr(TrackingCache, "load", counted_load)
    monkeypatch.setattr(TrackingCache, "store", counted_store)
    return traffic


def cached_config(tmp_path, **overrides):
    return batch_config(
        tracking={
            "num_azim": 4,
            "azim_spacing": 0.5,
            "num_polar": 2,
            "tracking_cache": True,
            "cache_dir": str(tmp_path),
        },
        **overrides,
    )


class TestScenarioBatchCaching:
    def test_four_states_one_store_zero_extra_misses(self, tmp_path, traffic):
        cfg = cached_config(tmp_path)
        batch = run_scenario_batch(cfg)
        assert len(batch.states) == 4
        # One probe (the shared laydown), one store, no hit on cold start.
        assert (traffic.loads, traffic.stores, traffic.hits) == (1, 1, 0)
        counters = batch.states[0].run_report.counters.to_dict()
        assert counters["laydowns_shared"] == 3
        assert counters["tracking_cache_misses"] == 1
        assert counters["tracking_cache_hits"] == 0

    def test_second_batch_hits_regardless_of_perturbations(self, tmp_path, traffic):
        run_scenario_batch(cached_config(tmp_path))
        # A different perturbation set still maps to the same laydown.
        other = cached_config(
            tmp_path,
            scenarios=[
                {"name": "only", "perturbations": [
                    {"kind": "density", "material": "UO2", "factor": 0.98}
                ]},
            ],
        )
        batch = run_scenario_batch(other)
        assert (traffic.loads, traffic.stores, traffic.hits) == (2, 1, 1)
        counters = batch.states[0].run_report.counters.to_dict()
        assert counters["tracking_cache_hits"] == 1
        assert counters["tracking_cache_misses"] == 0
        # Exactly one entry on disk: perturbed manifests share the key.
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_batch_and_plain_run_share_the_entry(self, tmp_path, traffic):
        """A plain (non-batch) run of the parent config reuses the entry
        a batch stored — and vice versa — because tracking keys never see
        materials or scenarios."""
        import dataclasses

        from repro.runtime.antmoc import AntMocApplication

        cfg = cached_config(tmp_path)
        run_scenario_batch(cfg)
        plain = dataclasses.replace(cfg, scenarios=())
        AntMocApplication(plain).run()
        assert (traffic.loads, traffic.stores, traffic.hits) == (2, 1, 1)
