"""Tests for cyclic 2D track laydown."""

import math

import numpy as np
import pytest

from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.quadrature import AzimuthalQuadrature
from repro.tracks import lay_tracks
from tests.tracks.tracks2d_oracle import unlinked_table


def laid(geometry, quad):
    """The object view of the laydown columns."""
    return unlinked_table(lay_tracks(geometry, quad)).tracks


@pytest.fixture()
def box(moderator):
    u = make_homogeneous_universe(moderator)
    return Geometry(Lattice([[u]], 4.0, 3.0))


class TestLaydown:
    def test_track_count_matches_quadrature(self, box):
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.4)
        tracks = laid(box, quad)
        assert len(tracks) == quad.total_tracks

    def test_uids_sequential(self, box):
        quad = AzimuthalQuadrature(4, box.width, box.height, 0.5)
        tracks = laid(box, quad)
        assert [t.uid for t in tracks] == list(range(len(tracks)))

    def test_endpoints_on_boundary(self, box):
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.4)
        for t in laid(box, quad):
            for (x, y) in ((t.x0, t.y0), (t.x1, t.y1)):
                assert box.boundary_side(x, y) is not None

    def test_all_tracks_point_up(self, box):
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.4)
        for t in laid(box, quad):
            assert t.direction[1] > 0.0
            assert t.y1 >= t.y0

    def test_direction_matches_phi(self, box):
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.4)
        for t in laid(box, quad):
            ux, uy = t.direction
            want = math.atan2(t.y1 - t.y0, t.x1 - t.x0)
            assert math.atan2(uy, ux) == pytest.approx(want, abs=1e-12)

    def test_positive_lengths(self, box):
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.4)
        assert all(t.length > 0 for t in laid(box, quad))

    def test_tracks_grouped_by_angle(self, box):
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.4)
        tracks = laid(box, quad)
        azims = [t.azim for t in tracks]
        assert azims == sorted(azims)
        counts = np.bincount(azims, minlength=quad.num_angles)
        np.testing.assert_array_equal(counts, quad.tracks_per_angle())

    def test_quadrature_domain_mismatch_rejected(self, box):
        quad = AzimuthalQuadrature(4, 10.0, 10.0, 0.5)
        with pytest.raises(Exception, match="different domain"):
            lay_tracks(box, quad)

    def test_area_coverage_per_angle(self, box):
        """Each angle family's sum of (length x spacing) tiles the area."""
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.2)
        tracks = laid(box, quad)
        area = box.width * box.height
        for a in range(quad.num_angles):
            total = sum(t.length for t in tracks if t.azim == a) * quad.spacing[a]
            assert total == pytest.approx(area, rel=1e-9)

    def test_start_points_distinct(self, box):
        quad = AzimuthalQuadrature(8, box.width, box.height, 0.3)
        tracks = laid(box, quad)
        starts = {(round(t.x0, 9), round(t.y0, 9), t.azim) for t in tracks}
        assert len(starts) == len(tracks)

    def test_point_at(self, box):
        quad = AzimuthalQuadrature(4, box.width, box.height, 0.5)
        t = laid(box, quad)[0]
        x, y = t.point_at(t.length)
        assert x == pytest.approx(t.x1)
        assert y == pytest.approx(t.y1)
