"""Tests for 2D ray tracing (segmentation)."""

import numpy as np
import pytest

from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe, make_pin_cell_universe
from repro.quadrature import AzimuthalQuadrature
from repro.tracks import lay_tracks, trace_all, trace_track
from tests.tracks.tracks2d_oracle import unlinked_table


def tracked(geometry, num_azim=8, spacing=0.3):
    quad = AzimuthalQuadrature(num_azim, geometry.width, geometry.height, spacing)
    return quad, unlinked_table(lay_tracks(geometry, quad))


class TestHomogeneous:
    def test_single_segment_per_track(self, moderator):
        u = make_homogeneous_universe(moderator)
        g = Geometry(Lattice([[u]], 4.0, 3.0))
        _, table = tracked(g)
        tracks = table.tracks
        segments = trace_all(g, table)
        assert segments.num_segments == len(tracks)
        for t in tracks:
            fsrs, lengths = segments.track_segments(t.uid)
            assert fsrs.tolist() == [0]
            assert lengths[0] == pytest.approx(t.length)


class TestLatticeOfCells:
    @pytest.fixture()
    def checkerboard(self, uo2, moderator):
        a = make_homogeneous_universe(uo2)
        b = make_homogeneous_universe(moderator)
        return Geometry(Lattice([[a, b], [b, a]], 1.0, 1.0))

    def test_lengths_sum_to_chord(self, checkerboard):
        _, table = tracked(checkerboard, spacing=0.2)
        tracks = table.tracks
        segments = trace_all(checkerboard, table)
        for t in tracks:
            assert segments.track_length(t.uid) == pytest.approx(t.length, rel=1e-12)

    def test_segment_fsrs_valid(self, checkerboard):
        _, table = tracked(checkerboard, spacing=0.2)
        segments = trace_all(checkerboard, table)
        assert segments.fsr_ids.min() >= 0
        assert segments.fsr_ids.max() < checkerboard.num_fsrs

    def test_consecutive_segments_differ_in_fsr(self, checkerboard):
        _, table = tracked(checkerboard, spacing=0.2)
        tracks = table.tracks
        segments = trace_all(checkerboard, table)
        for t in tracks:
            fsrs, _ = segments.track_segments(t.uid)
            assert all(a != b for a, b in zip(fsrs, fsrs[1:]))

    def test_midpoints_classified_correctly(self, checkerboard):
        """Re-sample each segment's midpoint; FSR must match."""
        _, table = tracked(checkerboard, spacing=0.25)
        tracks = table.tracks
        segments = trace_all(checkerboard, table)
        for t in tracks[:40]:
            fsrs, lengths = segments.track_segments(t.uid)
            s = 0.0
            for fsr, length in zip(fsrs, lengths):
                x, y = t.point_at(s + 0.5 * length)
                assert checkerboard.find_fsr(x, y) == fsr
                s += length


class TestPinCell:
    @pytest.fixture()
    def pin_geometry(self, uo2, moderator):
        pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=2, num_sectors=4)
        return Geometry(Lattice([[pin]], 1.26, 1.26))

    def test_every_fsr_is_hit(self, pin_geometry):
        """With reasonable spacing every FSR has at least one segment
        (the Table 4 requirement 'each FSR has tracks passing through')."""
        _, table = tracked(pin_geometry, num_azim=8, spacing=0.05)
        segments = trace_all(pin_geometry, table)
        hit = np.zeros(pin_geometry.num_fsrs, dtype=bool)
        hit[segments.fsr_ids] = True
        assert hit.all()

    def test_chord_through_center_crosses_rings(self, pin_geometry, uo2):
        from repro.tracks.track import Track2D

        diag = Track2D(
            uid=0, azim=0, x0=0.0, y0=0.63 - 1e-4, x1=1.26, y1=0.63 - 1e-4, phi=0.0
        )
        segs = trace_track(pin_geometry, diag)
        materials = [pin_geometry.fsr_material(f).name for f, _ in segs]
        # moderator - fuel rings - moderator pattern
        assert materials[0] == "Moderator"
        assert materials[-1] == "Moderator"
        assert "UO2" in materials

    def test_fuel_path_length_consistent(self, pin_geometry, uo2):
        """Total tracked fuel path x spacing approximates the fuel area."""
        quad, table = tracked(pin_geometry, num_azim=16, spacing=0.02)
        tracks = table.tracks
        segments = trace_all(pin_geometry, table)
        weights = np.empty(segments.num_segments)
        for t in tracks:
            lo, hi = segments.offsets[t.uid], segments.offsets[t.uid + 1]
            weights[lo:hi] = quad.weights[t.azim] * quad.spacing[t.azim]
        volumes = segments.fsr_path_lengths(pin_geometry.num_fsrs, weights)
        fuel = sum(
            volumes[r]
            for r in range(pin_geometry.num_fsrs)
            if pin_geometry.fsr_material(r) is uo2
        )
        assert fuel == pytest.approx(np.pi * 0.54**2, rel=2e-2)
