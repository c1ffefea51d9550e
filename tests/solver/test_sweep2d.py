"""Tests for the vectorised 2D transport sweep."""

import numpy as np
import pytest

from repro.constants import FOUR_PI
from repro.errors import SolverError
from repro.solver import SourceTerms, TransportSweep2D
from repro.solver.backends import build_position_index
from repro.tracks import TrackGenerator


class TestPositionIndex:
    def test_forward(self):
        offsets = np.array([0, 2, 3, 3, 6])
        idx = build_position_index(offsets, reverse=False)
        assert idx.shape == (4, 3)
        np.testing.assert_array_equal(idx[0], [0, 1, -1])
        np.testing.assert_array_equal(idx[2], [-1, -1, -1])
        np.testing.assert_array_equal(idx[3], [3, 4, 5])

    def test_reverse(self):
        offsets = np.array([0, 2, 3, 3, 6])
        idx = build_position_index(offsets, reverse=True)
        np.testing.assert_array_equal(idx[0], [1, 0, -1])
        np.testing.assert_array_equal(idx[3], [5, 4, 3])

    def test_empty(self):
        idx = build_position_index(np.array([0]), reverse=False)
        assert idx.shape == (0, 0)


@pytest.fixture()
def sweeper(small_trackgen, two_group_fissile):
    terms = SourceTerms([two_group_fissile] * small_trackgen.geometry.num_fsrs)
    return TransportSweep2D(small_trackgen, terms)


class TestSweepMechanics:
    def test_region_count_checked(self, small_trackgen, two_group_fissile):
        terms = SourceTerms([two_group_fissile] * (small_trackgen.geometry.num_fsrs + 1))
        with pytest.raises(SolverError, match="regions"):
            TransportSweep2D(small_trackgen, terms)

    def test_zero_source_zero_flux_stays_zero(self, sweeper):
        tally = sweeper.sweep(np.zeros((sweeper.terms.num_regions, 2)))
        assert np.allclose(tally, 0.0)
        assert np.allclose(sweeper.psi_in, 0.0)

    def test_uniform_source_fills_flux(self, sweeper):
        q = np.ones((sweeper.terms.num_regions, 2))
        tally = sweeper.sweep(q)
        assert tally.min() < 0.0  # psi starts below q: dpsi negative
        # after several sweeps angular flux approaches the source level
        for _ in range(200):
            sweeper.sweep(q)
        assert np.allclose(sweeper.psi_in, 1.0, rtol=1e-3)

    def test_equilibrium_scalar_flux(self, sweeper, small_trackgen):
        """At equilibrium with uniform q, phi = 4 pi q exactly."""
        q = np.full((sweeper.terms.num_regions, 2), 0.3)
        for _ in range(400):
            tally = sweeper.sweep(q)
        phi = sweeper.finalize_scalar_flux(tally, q, small_trackgen.fsr_volumes)
        np.testing.assert_allclose(phi, FOUR_PI * 0.3, rtol=1e-4)

    def test_reset_fluxes(self, sweeper):
        sweeper.sweep(np.ones((sweeper.terms.num_regions, 2)))
        sweeper.reset_fluxes()
        assert np.allclose(sweeper.psi_in, 0.0)

    def test_link_tables_consistent(self, sweeper, small_trackgen):
        for t in small_trackgen.tracks:
            assert not sweeper.terminal[t.uid].any()  # reflective box

    def test_finalize_zero_volume_fallback(self, sweeper):
        q = np.full((sweeper.terms.num_regions, 2), 2.0)
        tally = np.zeros_like(q)
        volumes = np.zeros(sweeper.terms.num_regions)
        phi = sweeper.finalize_scalar_flux(tally, q, volumes)
        np.testing.assert_allclose(phi, FOUR_PI * 2.0)


class TestVacuumLeakage:
    def test_vacuum_box_loses_neutrons(self, vacuum_box, two_group_fissile):
        tg = TrackGenerator(vacuum_box, num_azim=8, azim_spacing=0.4, num_polar=4).generate()
        terms = SourceTerms([two_group_fissile] * vacuum_box.num_fsrs)
        sweeper = TransportSweep2D(tg, terms)
        q = np.ones((vacuum_box.num_fsrs, 2))
        for _ in range(100):
            tally = sweeper.sweep(q)
        phi = sweeper.finalize_scalar_flux(tally, q, tg.fsr_volumes)
        # leakage: scalar flux strictly below the infinite-medium value
        assert (phi < FOUR_PI * 1.0).all()

    def test_interface_capture(self, two_group_fissile):
        from repro.geometry import BoundaryCondition, Geometry, Lattice
        from repro.geometry.universe import make_homogeneous_universe

        u = make_homogeneous_universe(two_group_fissile)
        g = Geometry(
            Lattice([[u]], 2.0, 2.0),
            boundary={"xmax": BoundaryCondition.INTERFACE},
        )
        tg = TrackGenerator(g, num_azim=4, azim_spacing=0.5, num_polar=2).generate()
        terms = SourceTerms([two_group_fissile])
        sweeper = TransportSweep2D(tg, terms)
        assert sweeper.interface.any()
        q = np.ones((1, 2))
        sweeper.sweep(q)
        # interface slots captured outgoing flux
        captured = sweeper.psi_out_last[sweeper.terminal]
        assert captured.size > 0
