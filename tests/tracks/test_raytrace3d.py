"""Tests for OTF 3D segmentation."""

import numpy as np
import pytest

from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.extruded import AxialMesh, ExtrudedGeometry
from repro.geometry.universe import make_homogeneous_universe
from repro.tracks import TrackGenerator3D, trace_3d_track


@pytest.fixture()
def hetero_3d(uo2, moderator):
    a = make_homogeneous_universe(uo2)
    b = make_homogeneous_universe(moderator)
    radial = Geometry(Lattice([[a, b]], 1.5, 2.0))
    mesh = AxialMesh([0.0, 0.8, 2.0])
    return ExtrudedGeometry(
        radial, mesh,
        boundary_zmin=BoundaryCondition.REFLECTIVE,
        boundary_zmax=BoundaryCondition.REFLECTIVE,
    )


@pytest.fixture()
def trackgen3d(hetero_3d):
    return TrackGenerator3D(
        hetero_3d, num_azim=4, azim_spacing=0.5, polar_spacing=0.5, num_polar=2
    ).generate()


class TestChainSegments:
    def test_bounds_cover_chain(self, trackgen3d):
        for chain in trackgen3d.chains:
            table = trackgen3d.chain_tables[chain.index]
            assert table.bounds[0] == 0.0
            assert table.bounds[-1] == pytest.approx(chain.length)

    def test_adjacent_intervals_differ(self, trackgen3d):
        for table in trackgen3d.chain_tables.values():
            fsrs = table.fsrs
            assert all(a != b for a, b in zip(fsrs, fsrs[1:]))

    def test_fsr_at_matches_tracks(self, trackgen3d):
        geometry = trackgen3d.geometry
        tracks = trackgen3d.tracks
        for chain in trackgen3d.chains[:4]:
            table = trackgen3d.chain_tables[chain.index]
            # sample points along the chain and verify via geometry lookup
            for frac in (0.1, 0.45, 0.8):
                s = frac * chain.length
                # locate the owning track element
                idx = 0
                for i, off in enumerate(chain.offsets):
                    if off <= s:
                        idx = i
                uid, fwd = chain.elements[idx]
                local = s - chain.offsets[idx]
                track = tracks[uid]
                if not fwd:
                    local = track.length - local
                x, y = track.point_at(local)
                x = min(max(x, geometry.xmin + 1e-9), geometry.xmax - 1e-9)
                y = min(max(y, geometry.ymin + 1e-9), geometry.ymax - 1e-9)
                assert table.fsr_at(s) == geometry.find_fsr(x, y)


class TestTrace3D:
    def test_lengths_sum_to_3d_length(self, trackgen3d):
        for t in trackgen3d.tracks3d:
            _, lengths = trackgen3d.trace_track_3d(t)
            assert lengths.sum() == pytest.approx(t.length, rel=1e-9)

    def test_fsr_ids_in_range(self, trackgen3d, hetero_3d):
        segments = trackgen3d.trace_all_3d()
        assert segments.fsr_ids.min() >= 0
        assert segments.fsr_ids.max() < hetero_3d.num_fsrs

    def test_axial_crossings_present(self, trackgen3d, hetero_3d):
        """Tracks spanning the full height must cross the z = 0.8 plane."""
        nz = hetero_3d.num_layers
        for t in trackgen3d.tracks3d[:20]:
            fsrs, _ = trackgen3d.trace_track_3d(t)
            layers = set((fsrs % nz).tolist())
            assert layers == {0, 1}

    def test_consecutive_segments_differ(self, trackgen3d):
        for t in trackgen3d.tracks3d[:50]:
            fsrs, _ = trackgen3d.trace_track_3d(t)
            assert all(a != b for a, b in zip(fsrs, fsrs[1:]))

    def test_volume_conservation(self, trackgen3d, hetero_3d):
        """Tracked 3D volumes reproduce each region's analytic volume."""
        volumes = trackgen3d.fsr_volumes_3d()
        # radial FSR 0: 1.5 x 2.0 column, FSR 1: same; layers 0.8 / 1.2
        expected = []
        for radial in range(2):
            for heights in (0.8, 1.2):
                expected.append(1.5 * 2.0 * heights)
        np.testing.assert_allclose(volumes, expected, rtol=1e-9)

    def test_explicit_equals_otf(self, trackgen3d):
        """The EXP path stores exactly what OTF regenerates."""
        explicit = trackgen3d.trace_all_3d()
        for t in trackgen3d.tracks3d:
            fsrs, lengths = trace_3d_track(
                t, trackgen3d.chain_tables[t.chain], trackgen3d.geometry3d,
                wrap=trackgen3d.is_chain_closed(t.chain),
            )
            efsrs, elengths = explicit.track_segments(t.uid)
            np.testing.assert_array_equal(fsrs, efsrs)
            np.testing.assert_array_equal(lengths, elengths)


class TestWrappedChains:
    def test_wrapped_track_segments_cover_span(self, trackgen3d):
        """Closed-chain tracks with s1 > L still produce full coverage."""
        closed = [c.index for c in trackgen3d.chains if c.closed]
        assert closed, "expected closed chains under reflective BCs"
        lengths = {c.index: c.length for c in trackgen3d.chains}
        wrapped = [
            t for t in trackgen3d.tracks3d
            if t.chain in closed and t.s1 > lengths[t.chain]
        ]
        for t in wrapped[:10]:
            fsrs, seg_lengths = trackgen3d.trace_track_3d(t)
            assert seg_lengths.sum() == pytest.approx(t.length, rel=1e-9)
            assert (seg_lengths > 0).all()
