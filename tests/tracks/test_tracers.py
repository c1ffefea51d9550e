"""The 2D tracer every generator runs against the scalar oracle tracer,
segment for segment."""

import numpy as np
import pytest

from repro.geometry import Geometry, Lattice
from repro.geometry.cell import Cell
from repro.geometry.region import Halfspace, Intersection
from repro.geometry.surfaces import ZCylinder
from repro.geometry.universe import Universe, make_pin_cell_universe
from repro.quadrature import AzimuthalQuadrature
from repro.tracks import TrackGenerator, lay_tracks
from repro.tracks import raytrace2d
from repro.tracks.raytrace2d import trace_all, trace_all_reference, trace_all_wavefront
from repro.tracks.track import Track2D
from tests.tracks.tracks2d_oracle import table_of, unlinked_table


def make_pin_geometry(uo2, moderator, num_rings=2, num_sectors=4):
    pin = make_pin_cell_universe(0.54, uo2, moderator, num_rings=num_rings, num_sectors=num_sectors)
    return Geometry(Lattice([[pin]], 1.26, 1.26), name="tracer-pin")


def tracked(geometry, num_azim=8, spacing=0.2):
    quad = AzimuthalQuadrature(num_azim, geometry.width, geometry.height, spacing)
    return unlinked_table(lay_tracks(geometry, quad))


class TestSelectionPolicy:
    def test_default_is_batch(self, uo2, moderator, monkeypatch):
        """The generator runs the wavefront tracer, never the scalar
        walker, whatever the environment says."""

        def walker(*args):
            raise AssertionError("a generator ran the scalar walker")

        monkeypatch.setattr(raytrace2d, "trace_track", walker)
        monkeypatch.setenv("REPRO_TRACER", "reference")
        g = make_pin_geometry(uo2, moderator)
        gen = TrackGenerator(g, num_azim=4, azim_spacing=0.3).generate()
        assert gen.segments.num_segments > 0


class TestCrossTracerEquivalence:
    def test_pin_cell_segments_identical(self, uo2, moderator):
        g = make_pin_geometry(uo2, moderator)
        tracks = tracked(g)
        ref = trace_all_reference(g, tracks)
        batch = trace_all_wavefront(g, tracks)
        assert np.array_equal(ref.offsets, batch.offsets)
        assert np.array_equal(ref.fsr_ids, batch.fsr_ids)
        assert np.array_equal(ref.lengths, batch.lengths)

    def test_trace_all_equals_reference(self, uo2, moderator):
        g = make_pin_geometry(uo2, moderator, num_rings=1, num_sectors=1)
        tracks = tracked(g, num_azim=4, spacing=0.4)
        ref = trace_all_reference(g, tracks)
        batch = trace_all(g, tracks)
        assert np.array_equal(ref.offsets, batch.offsets)
        assert np.array_equal(ref.lengths, batch.lengths)
        assert np.array_equal(ref.fsr_ids, batch.fsr_ids)

    def test_generator_segments_equal_reference(self, uo2, moderator):
        g = make_pin_geometry(uo2, moderator)
        gen = TrackGenerator(g, num_azim=4, azim_spacing=0.3).generate()
        ref = trace_all_reference(g, gen.track_table_2d())
        assert np.array_equal(ref.offsets, gen.segments.offsets)
        assert np.array_equal(ref.fsr_ids, gen.segments.fsr_ids)
        assert np.array_equal(ref.lengths, gen.segments.lengths)


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
