"""Tests for tracking serialisation (save/restore)."""

import numpy as np
import pytest

from repro.errors import TrackingError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.tracks import TrackGenerator
from repro.tracks.io import load_tracking, save_tracking


class TestSaveLoad2D:
    def test_roundtrip_products(self, reflective_box, tmp_path, small_trackgen):
        path = save_tracking(tmp_path / "tracks.npz", small_trackgen)
        fresh = TrackGenerator(reflective_box, num_azim=8, azim_spacing=0.5, num_polar=4)
        load_tracking(path, fresh)
        assert fresh.num_tracks == small_trackgen.num_tracks
        assert fresh.num_segments == small_trackgen.num_segments
        np.testing.assert_allclose(fresh.fsr_volumes, small_trackgen.fsr_volumes)
        # links restored exactly
        for a, b in zip(fresh.tracks, small_trackgen.tracks):
            assert (a.link_fwd.track, a.link_fwd.forward) == (
                b.link_fwd.track, b.link_fwd.forward
            )
            assert a.azim == b.azim
            assert a.length == pytest.approx(b.length)

    def test_chains_restored(self, reflective_box, tmp_path, small_trackgen):
        path = save_tracking(tmp_path / "tracks.npz", small_trackgen)
        fresh = TrackGenerator(reflective_box, num_azim=8, azim_spacing=0.5, num_polar=4)
        load_tracking(path, fresh)
        assert len(fresh.chains) == len(small_trackgen.chains)
        for a, b in zip(fresh.chains, small_trackgen.chains):
            assert a.elements == b.elements
            assert a.closed == b.closed
            assert a.length == pytest.approx(b.length)

    def test_restored_generator_solves_identically(self, reflective_box, tmp_path, small_trackgen, two_group_fissile):
        from repro.solver import KeffSolver, SourceTerms, TransportSweep2D

        def solve(tg):
            terms = SourceTerms([two_group_fissile] * tg.geometry.num_fsrs)
            sweeper = TransportSweep2D(tg, terms)
            solver = KeffSolver(
                terms, tg.fsr_volumes, sweeper.sweep, sweeper.finalize_scalar_flux,
                max_iterations=40,
            )
            return solver.solve().keff

        path = save_tracking(tmp_path / "tracks.npz", small_trackgen)
        fresh = TrackGenerator(reflective_box, num_azim=8, azim_spacing=0.5, num_polar=4)
        load_tracking(path, fresh)
        assert solve(fresh) == pytest.approx(solve(small_trackgen), abs=1e-14)


class TestValidation:
    def test_geometry_mismatch_rejected(self, tmp_path, small_trackgen, two_group_fissile):
        from tests.conftest import make_box_geometry

        path = save_tracking(tmp_path / "tracks.npz", small_trackgen)
        other = make_box_geometry(two_group_fissile, width=9.0, height=9.0)
        fresh = TrackGenerator(other, num_azim=8, azim_spacing=0.5)
        with pytest.raises(TrackingError, match="bounds"):
            load_tracking(path, fresh)

    def test_version_check(self, tmp_path, small_trackgen, reflective_box):
        import numpy as np

        path = save_tracking(tmp_path / "tracks.npz", small_trackgen)
        data = dict(np.load(path))
        data["format_version"] = np.array([99])
        np.savez_compressed(path, **data)
        fresh = TrackGenerator(reflective_box, num_azim=8, azim_spacing=0.5)
        with pytest.raises(TrackingError, match="format"):
            load_tracking(path, fresh)
