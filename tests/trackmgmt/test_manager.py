"""Tests for the Manager track-storage strategy (Sec. 4.1)."""

import numpy as np
import pytest

from repro.solver import SourceTerms, TransportSweep3D
from repro.trackmgmt import ManagedStorage, estimate_track_segments
from repro.trackmgmt.strategy import BYTES_PER_SEGMENT, ExplicitStorage


@pytest.fixture()
def sweeper(small_trackgen_3d, two_group_fissile):
    terms = SourceTerms([two_group_fissile] * small_trackgen_3d.geometry3d.num_fsrs)
    return TransportSweep3D(small_trackgen_3d, terms)


class TestSegmentEstimation:
    def test_estimates_match_actual_counts(self, small_trackgen_3d):
        """The per-track estimate equals the traced segment count (merged
        same-FSR neighbours aside, counts can only be over-estimated)."""
        tg = small_trackgen_3d
        for t in tg.tracks3d:
            est = estimate_track_segments(tg, t)
            actual = len(tg.trace_track_3d(t)[1])
            assert est >= actual
            assert est <= actual + 3  # breakpoint-coincidence slack

    def test_estimates_track_actual_ordering(self, small_trackgen_3d):
        """Estimates rank tracks in (nearly) the same order as actual
        segment counts — the property greedy selection relies on."""
        tg = small_trackgen_3d
        ests = np.array([estimate_track_segments(tg, t) for t in tg.tracks3d], dtype=float)
        actuals = np.array(
            [len(tg.trace_track_3d(t)[1]) for t in tg.tracks3d], dtype=float
        )
        if actuals.std() > 0 and ests.std() > 0:
            corr = np.corrcoef(ests, actuals)[0, 1]
            assert corr > 0.9


class TestResidentSelection:
    def test_greedy_prefers_largest(self, small_trackgen_3d):
        mgr = ManagedStorage(small_trackgen_3d, resident_memory_bytes=600)
        resident = mgr.estimated_segments[mgr.resident_mask]
        temporary = mgr.estimated_segments[~mgr.resident_mask]
        if resident.size and temporary.size:
            # Every resident track is at least as large as the largest
            # temporary one that *would have fit* in the leftover budget.
            assert resident.min() >= np.median(temporary) - 1

    def test_budget_respected(self, small_trackgen_3d):
        for budget in (0, 300, 1200, 10**9):
            mgr = ManagedStorage(small_trackgen_3d, resident_memory_bytes=budget)
            assert mgr.resident_memory_bytes() <= max(budget, 0) + BYTES_PER_SEGMENT

    def test_zero_budget_all_temporary(self, small_trackgen_3d):
        mgr = ManagedStorage(small_trackgen_3d, resident_memory_bytes=0)
        assert mgr.num_resident == 0
        assert mgr.resident_fraction == 0.0

    def test_huge_budget_all_resident(self, small_trackgen_3d):
        mgr = ManagedStorage(small_trackgen_3d, resident_memory_bytes=10**12)
        assert mgr.num_temporary == 0
        assert mgr.resident_fraction == 1.0


class TestSweepEquivalence:
    def test_manager_matches_exp_physics(self, small_trackgen_3d, sweeper):
        exp = ExplicitStorage(small_trackgen_3d)
        mgr = ManagedStorage(small_trackgen_3d, resident_memory_bytes=500)
        q = np.full((sweeper.terms.num_regions, 2), 0.7)
        tally_exp = exp.sweep(sweeper, q)
        sweeper.reset_fluxes()
        tally_mgr = mgr.sweep(sweeper, q)
        np.testing.assert_allclose(tally_exp, tally_mgr, rtol=1e-12)

    def test_only_temporaries_regenerated(self, small_trackgen_3d, sweeper):
        mgr = ManagedStorage(small_trackgen_3d, resident_memory_bytes=500)
        q = np.zeros((sweeper.terms.num_regions, 2))
        mgr.sweep(sweeper, q)
        mgr.sweep(sweeper, q)
        assert mgr.regenerated_tracks_total == 2 * mgr.num_temporary

    def test_est_segments_attached_to_tracks(self, small_trackgen_3d):
        mgr = ManagedStorage(small_trackgen_3d, resident_memory_bytes=100)
        assert mgr.estimated_segments.shape == (small_trackgen_3d.num_tracks_3d,)
        assert (mgr.estimated_segments > 0).all()

    def test_all_resident_assembles_once(self, small_trackgen_3d, two_group_fissile):
        """With nothing to regenerate every sweep gets the same segment
        object, so the plan (and its exp table) is built once, as for EXP."""
        terms = SourceTerms([two_group_fissile] * small_trackgen_3d.geometry3d.num_fsrs)
        q = np.full((terms.num_regions, 2), 0.7)
        tallies = {}
        for name, strategy in (
            ("exp", ExplicitStorage(small_trackgen_3d)),
            ("mgr", ManagedStorage(small_trackgen_3d, resident_memory_bytes=10**12)),
        ):
            sweeper = TransportSweep3D(small_trackgen_3d, terms)
            tallies[name] = [strategy.sweep(sweeper, q).copy() for _ in range(3)]
            assert sweeper.timings.num_plan_builds == 1
            assert strategy.regenerated_tracks_total == 0
        np.testing.assert_array_equal(tallies["mgr"], tallies["exp"])
