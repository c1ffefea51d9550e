"""Tests for the tracer registry, selection policy and tracer equivalence."""

import numpy as np
import pytest

from repro.errors import TrackingError
from repro.geometry import Geometry, Lattice
from repro.geometry.cell import Cell
from repro.geometry.region import Halfspace, Intersection
from repro.geometry.surfaces import ZCylinder
from repro.geometry.universe import Universe, make_pin_cell_universe
from repro.io.config import config_from_dict
from repro.quadrature import AzimuthalQuadrature
from repro.tracks import TrackGenerator, lay_tracks
from repro.tracks.raytrace2d import trace_all, trace_all_reference, trace_all_wavefront
from repro.tracks.track import Track2D
from repro.tracks import tracers
from tests.tracks.tracks2d_oracle import table_of, unlinked_table


def make_pin_geometry(uo2, moderator, num_rings=2, num_sectors=4):
    pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=num_rings, num_sectors=num_sectors)
    return Geometry(Lattice([[pin]], 1.26, 1.26), name="tracer-pin")


def tracked(geometry, num_azim=8, spacing=0.2):
    quad = AzimuthalQuadrature(num_azim, geometry.width, geometry.height, spacing)
    return unlinked_table(lay_tracks(geometry, quad))


class TestRegistry:
    def test_registered_names(self):
        assert tracers.tracer_names() == ("batch", "reference")

    def test_get_unknown_tracer_raises(self):
        with pytest.raises(TrackingError, match="unknown tracer"):
            tracers.get_tracer("does-not-exist")

    def test_register_and_select(self):
        calls = []

        def sentinel(geometry, tracks):
            calls.append(tracks.num_tracks)
            return trace_all_reference(geometry, tracks)

        tracers.register_tracer("sentinel", sentinel)
        try:
            assert tracers.resolve_tracer("sentinel") == "sentinel"
        finally:
            tracers._REGISTRY.pop("sentinel")


class TestSelectionPolicy:
    def test_default_is_batch(self):
        assert tracers.resolve_tracer() == "batch"

    def test_argument_beats_env(self, monkeypatch):
        """``REPRO_TRACER`` selects nothing: the argument alone does."""
        monkeypatch.setenv("REPRO_TRACER", "reference")
        assert tracers.resolve_tracer("batch") == "batch"
        assert tracers.resolve_tracer() == tracers.DEFAULT_TRACER

    def test_config_default_applies(self):
        assert config_from_dict({}).tracking.tracer == tracers.DEFAULT_TRACER

    def test_unknown_name_raises(self):
        with pytest.raises(TrackingError, match="unknown tracer"):
            tracers.resolve_tracer("walker")

    def test_auto_is_an_unknown_name(self):
        """``auto`` no longer defers to the default tracer: it names none."""
        with pytest.raises(TrackingError, match="unknown tracer"):
            tracers.resolve_tracer("auto")


class TestCrossTracerEquivalence:
    def test_pin_cell_segments_identical(self, uo2, moderator):
        g = make_pin_geometry(uo2, moderator)
        tracks = tracked(g)
        ref = trace_all_reference(g, tracks)
        batch = trace_all_wavefront(g, tracks)
        assert np.array_equal(ref.offsets, batch.offsets)
        assert np.array_equal(ref.fsr_ids, batch.fsr_ids)
        assert np.array_equal(ref.lengths, batch.lengths)

    def test_trace_all_dispatches_by_name(self, uo2, moderator):
        g = make_pin_geometry(uo2, moderator, num_rings=1, num_sectors=1)
        tracks = tracked(g, num_azim=4, spacing=0.4)
        ref = trace_all(g, tracks, tracer="reference")
        batch = trace_all(g, tracks, tracer="batch")
        assert np.array_equal(ref.lengths, batch.lengths)
        assert np.array_equal(ref.fsr_ids, batch.fsr_ids)

    def test_generator_tracer_selection(self, uo2, moderator):
        g = make_pin_geometry(uo2, moderator)
        ref = TrackGenerator(g, num_azim=4, azim_spacing=0.3, tracer="reference").generate()
        batch = TrackGenerator(g, num_azim=4, azim_spacing=0.3, tracer="batch").generate()
        assert np.array_equal(ref.segments.offsets, batch.segments.offsets)
        assert np.array_equal(ref.segments.fsr_ids, batch.segments.fsr_ids)
        assert np.array_equal(ref.segments.lengths, batch.segments.lengths)
        np.testing.assert_array_equal(ref.fsr_volumes, batch.fsr_volumes)

    def test_generator_rejects_unknown_tracer(self, uo2, moderator):
        g = make_pin_geometry(uo2, moderator)
        with pytest.raises(TrackingError, match="unknown tracer"):
            TrackGenerator(g, num_azim=4, azim_spacing=0.3, tracer="walker").generate()


class TestSliverFallback:
    """Regression: a forced sliver jump must not overshoot a thin FSR.

    Three concentric cylinders: the outer band is 0.8 nm thick (below
    MIN_SEGMENT_LENGTH, so crossing it triggers the forced jump) and the
    middle band is 4 nm thick — thinner than the 10 nm jump, so only the
    quarter-point probes can see it.
    """

    R_IN = 0.4
    R_MID = 0.4 + 4.0e-9
    R_OUT = 0.4 + 4.8e-9

    def make_geometry(self, uo2, moderator):
        c_in = ZCylinder(0.0, 0.0, self.R_IN, name="in")
        c_mid = ZCylinder(0.0, 0.0, self.R_MID, name="mid")
        c_out = ZCylinder(0.0, 0.0, self.R_OUT, name="out")
        cells = [
            Cell(Halfspace(c_in, -1), material=uo2, name="core"),
            Cell(
                Intersection([Halfspace(c_in, +1), Halfspace(c_mid, -1)]),
                material=moderator,
                name="thin-band",
            ),
            Cell(
                Intersection([Halfspace(c_mid, +1), Halfspace(c_out, -1)]),
                material=uo2,
                name="sliver-band",
            ),
            Cell(Halfspace(c_out, +1), material=moderator, name="outside"),
        ]
        return Geometry(Lattice([[Universe(cells)]], 1.26, 1.26), name="thin-annulus")

    def diametral_track(self, g):
        yc = 0.5 * (g.ymin + g.ymax)
        return Track2D(uid=0, azim=0, x0=g.xmin, y0=yc, x1=g.xmax, y1=yc, phi=0.0)

    def test_thin_band_is_recorded(self, uo2, moderator):
        g = self.make_geometry(uo2, moderator)
        track = self.diametral_track(g)
        segments = trace_all_reference(g, table_of([track]))
        fsrs, lengths = segments.track_segments(0)
        # FSR ids follow cell order: 0=core, 1=thin band, 2=sliver, 3=outside.
        assert 1 in fsrs.tolist(), "quarter-point probe missed the thin FSR"
        assert 0 in fsrs.tolist()
        assert 3 in fsrs.tolist()
        assert lengths.sum() == pytest.approx(track.length, rel=1e-12)

    def test_batch_matches_reference_on_slivers(self, uo2, moderator):
        g = self.make_geometry(uo2, moderator)
        track = self.diametral_track(g)
        ref = trace_all_reference(g, table_of([track]))
        batch = trace_all_wavefront(g, table_of([track]))
        assert np.array_equal(ref.fsr_ids, batch.fsr_ids)
        assert np.array_equal(ref.lengths, batch.lengths)
