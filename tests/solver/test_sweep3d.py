"""Tests for the 3D transport sweep."""

import numpy as np
import pytest

from repro.constants import FOUR_PI
from repro.errors import SolverError
from repro.solver import SourceTerms, TransportSweep3D


@pytest.fixture()
def sweeper3d(small_trackgen_3d, two_group_fissile):
    terms = SourceTerms([two_group_fissile] * small_trackgen_3d.geometry3d.num_fsrs)
    return TransportSweep3D(small_trackgen_3d, terms)


class TestSweep3D:
    def test_region_count_checked(self, small_trackgen_3d, two_group_fissile):
        terms = SourceTerms([two_group_fissile])
        with pytest.raises(SolverError):
            TransportSweep3D(small_trackgen_3d, terms)

    def test_equilibrium_flux(self, sweeper3d, small_trackgen_3d):
        segments = small_trackgen_3d.trace_all_3d()
        q = np.full((sweeper3d.terms.num_regions, 2), 0.25)
        for _ in range(400):
            tally = sweeper3d.sweep(segments, q)
        phi = sweeper3d.finalize_scalar_flux(
            tally, q, small_trackgen_3d.fsr_volumes_3d(segments)
        )
        np.testing.assert_allclose(phi, FOUR_PI * 0.25, rtol=1e-3)

    def test_plan_cache_by_identity(self, sweeper3d, small_trackgen_3d):
        segments = small_trackgen_3d.trace_all_3d()
        q = np.zeros((sweeper3d.terms.num_regions, 2))
        sweeper3d.sweep(segments, q)
        plan_first = sweeper3d.plan_for(segments)
        assert plan_first is small_trackgen_3d.sweep_plan_3d(segments)
        sweeper3d.sweep(segments, q)
        assert sweeper3d.plan_for(segments) is plan_first
        assert sweeper3d.timings.num_plan_builds == 1
        # A fresh trace of the same geometry shares the per-track layout:
        # the plan is rebound (new object, fresh FSR/length gathers) but
        # the prefix-packed layout carries over unchanged, and the index
        # matrices the numpy kernel never reads were never built.
        other = small_trackgen_3d.trace_all_3d()
        sweeper3d.sweep(other, q)
        plan_other = sweeper3d.plan_for(other)
        assert plan_other is not plan_first
        assert plan_other.segments is other
        assert plan_other.pos_order is plan_first.pos_order
        assert plan_other.col_starts is plan_first.col_starts
        assert plan_first._idx_fwd is None

    def test_track_count_mismatch_rejected(self, sweeper3d):
        from repro.tracks import SegmentData

        bad = SegmentData.from_lists([[(0, 1.0)]])
        with pytest.raises(SolverError, match="tracks"):
            sweeper3d.sweep(bad, np.zeros((sweeper3d.terms.num_regions, 2)))

    def test_weights_positive(self, sweeper3d):
        assert (sweeper3d.weights > 0).all()

    def test_all_linked_in_reflective_box(self, sweeper3d):
        assert not sweeper3d.terminal.any()

    def test_reset(self, sweeper3d, small_trackgen_3d):
        segments = small_trackgen_3d.trace_all_3d()
        sweeper3d.sweep(segments, np.ones((sweeper3d.terms.num_regions, 2)))
        sweeper3d.reset_fluxes()
        assert np.allclose(sweeper3d.psi_in, 0.0)


@pytest.mark.parametrize("storage", ["EXP", "MANAGER"])
def test_numpy_3d_solve_leaves_plan_weights_unbuilt(storage):
    """The 3D lockstep weights each position by its prefix of the sorted
    track weights, so a 3D numpy solve (CMFD on: the fold weighs by track
    too) never builds the plan's per-segment weights; a 2D reader builds
    them on first access and a rebind carries what was built."""
    from repro.runtime.antmoc import build_geometry, build_solver
    from tests.observability.conftest import mini_3d_config

    cfg = mini_3d_config(
        solver={"max_iterations": 3, "keff_tolerance": 1e-14, "source_tolerance": 1e-14,
                "storage_method": storage, "cmfd": {"enabled": True}},
    )
    solver = build_solver(cfg, build_geometry(cfg), cache=None)
    solver.solve()
    plans = [solver.domain.plan, solver.domain.sweeper._plan]
    assert all(p._seg_weights is None and p._pos_weights is None for p in plans)
    plan = plans[0]
    built = plan.pos_weights
    assert plan.rebind(plan.segments)._pos_weights is built
