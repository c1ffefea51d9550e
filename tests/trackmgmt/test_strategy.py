"""Tests for EXP/OTF storage strategies."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solver import SourceTerms, TransportSweep3D
from repro.trackmgmt import ExplicitStorage, OnTheFlyStorage, make_strategy
from repro.trackmgmt.strategy import BYTES_PER_SEGMENT


@pytest.fixture()
def sweeper(small_trackgen_3d, two_group_fissile):
    terms = SourceTerms([two_group_fissile] * small_trackgen_3d.geometry3d.num_fsrs)
    return TransportSweep3D(small_trackgen_3d, terms)


class TestExplicit:
    def test_memory_accounting(self, small_trackgen_3d):
        exp = ExplicitStorage(small_trackgen_3d)
        segments = exp.reference_segments()
        assert exp.resident_memory_bytes() == segments.num_segments * BYTES_PER_SEGMENT

    def test_no_regeneration(self, small_trackgen_3d, sweeper):
        exp = ExplicitStorage(small_trackgen_3d)
        q = np.zeros((sweeper.terms.num_regions, 2))
        for _ in range(3):
            exp.sweep(sweeper, q)
        assert exp.regenerated_tracks_total == 0
        assert exp.sweeps_served == 3

    def test_same_segments_object_reused(self, small_trackgen_3d):
        exp = ExplicitStorage(small_trackgen_3d)
        assert exp.reference_segments() is exp.reference_segments()


class TestOnTheFly:
    def test_zero_resident_memory(self, small_trackgen_3d):
        otf = OnTheFlyStorage(small_trackgen_3d)
        assert otf.resident_memory_bytes() == 0

    def test_regenerates_every_sweep(self, small_trackgen_3d, sweeper):
        otf = OnTheFlyStorage(small_trackgen_3d)
        q = np.zeros((sweeper.terms.num_regions, 2))
        otf.sweep(sweeper, q)
        otf.sweep(sweeper, q)
        assert otf.regenerated_tracks_total == 2 * small_trackgen_3d.num_tracks_3d

    def test_same_physics_as_exp(self, small_trackgen_3d, sweeper):
        exp = ExplicitStorage(small_trackgen_3d)
        otf = OnTheFlyStorage(small_trackgen_3d)
        q = np.full((sweeper.terms.num_regions, 2), 0.4)
        tally_exp = exp.sweep(sweeper, q)
        sweeper.reset_fluxes()
        tally_otf = otf.sweep(sweeper, q)
        np.testing.assert_allclose(tally_exp, tally_otf, rtol=1e-12)


class TestFactory:
    def test_names(self, small_trackgen_3d):
        assert make_strategy("EXP", small_trackgen_3d).name == "EXP"
        assert make_strategy("otf", small_trackgen_3d).name == "OTF"
        assert make_strategy("Manager", small_trackgen_3d).name == "MANAGER"

    def test_unknown(self, small_trackgen_3d):
        with pytest.raises(SolverError):
            make_strategy("NOPE", small_trackgen_3d)

    def test_manager_budget_passthrough(self, small_trackgen_3d):
        strategy = make_strategy("MANAGER", small_trackgen_3d, resident_memory_bytes=777)
        assert strategy.resident_memory_bytes_budget == 777


class TestWorkloadIsABuildTimeFact:
    """Reading ``solver.workload`` reports what the build already counted;
    a regenerating strategy must not re-trace the problem to answer it."""

    @pytest.mark.parametrize("storage", ["OTF", "MANAGER"])
    def test_reading_workload_traces_nothing(self, small_geometry_3d, monkeypatch, storage):
        import repro.trackmgmt.manager as manager
        import repro.tracks.generator as generator
        from repro.solver import MOCSolver
        from repro.tracks import raytrace3d

        calls = []
        batch = raytrace3d.trace_3d_batch

        def spy(*args, **kwargs):
            calls.append(args)
            return batch(*args, **kwargs)

        for module in (raytrace3d, generator, manager):
            monkeypatch.setattr(module, "trace_3d_batch", spy)

        def solve_then(read):
            del calls[:]
            solver = MOCSolver.for_3d(
                small_geometry_3d, num_azim=4, azim_spacing=0.8, polar_spacing=0.8,
                num_polar=2, storage=storage, resident_memory_bytes=600, max_iterations=3,
            )
            solver.solve()
            return [read(solver) for _ in range(2)], len(calls)

        _, quiet = solve_then(lambda solver: None)
        workloads, traced = solve_then(lambda solver: solver.workload)
        assert traced == quiet
        assert workloads[0] == workloads[1]
        assert workloads[0].segments_3d == batch(
            MOCSolver.for_3d(
                small_geometry_3d, num_azim=4, azim_spacing=0.8, polar_spacing=0.8, num_polar=2
            ).trackgen.track_table()
        ).num_segments
