"""Tests for the content-addressed tracking cache."""

import numpy as np
import pytest

from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_pin_cell_universe
from repro.tracks import TrackGenerator, TrackGenerator3D, TrackTable2D, TrackTable3D
from repro.tracks.cache import (
    CACHE_DIR_ENV_VAR,
    TrackingCache,
    default_cache_dir,
    resolve_cache,
    tracking_fingerprint,
)


def make_pin_geometry(fuel, moderator, radius=0.54):
    pin = make_pin_cell_universe(radius, fuel, moderator, num_rings=2, num_sectors=4)
    return Geometry(Lattice([[pin]], 1.26, 1.26), name="cache-pin")


def make_generator(geometry, cache, spacing=0.3):
    return TrackGenerator(geometry, num_azim=4, azim_spacing=spacing, cache=cache)


class TestHitAndMiss:
    def test_cold_store_then_warm_hit(self, uo2, moderator, tmp_path):
        cache = TrackingCache(tmp_path)
        g = make_pin_geometry(uo2, moderator)
        cold = make_generator(g, cache).generate()
        assert not cold.timings.cache_hit
        assert cache.path_for(cold).exists()

        warm = make_generator(g, cache).generate()
        assert warm.timings.cache_hit
        assert np.array_equal(cold.segments.offsets, warm.segments.offsets)
        assert np.array_equal(cold.segments.fsr_ids, warm.segments.fsr_ids)
        assert np.array_equal(cold.segments.lengths, warm.segments.lengths)
        np.testing.assert_array_equal(cold.fsr_volumes, warm.fsr_volumes)
        assert len(cold.tracks) == len(warm.tracks)
        for a, b in zip(cold.tracks, warm.tracks):
            assert (a.x0, a.y0, a.x1, a.y1, a.phi) == (b.x0, b.y0, b.x1, b.y1, b.phi)
            assert (a.link_fwd, a.link_bwd) == (b.link_fwd, b.link_bwd)
        assert len(cold.chains) == len(warm.chains)
        for a, b in zip(cold.chains, warm.chains):
            assert a.elements == b.elements
            assert a.closed == b.closed

    def test_corrupt_entry_is_a_miss(self, uo2, moderator, tmp_path):
        cache = TrackingCache(tmp_path)
        g = make_pin_geometry(uo2, moderator)
        cold = make_generator(g, cache).generate()
        path = cache.path_for(cold)
        path.write_bytes(b"not an npz archive")

        regen = make_generator(g, cache).generate()
        assert not regen.timings.cache_hit  # corrupt entry ignored, rebuilt
        assert np.array_equal(cold.segments.lengths, regen.segments.lengths)
        # The rebuilt entry replaced the corrupt one and is loadable again.
        warm = make_generator(g, cache).generate()
        assert warm.timings.cache_hit


class TestHitEqualsFresh:
    """A restored generator is the generated one: every column of its
    tables, values and dtypes (format 2 archived no ``index_in_azim`` /
    side columns, so they came back as ``0`` / ``""``)."""

    @staticmethod
    def assert_same_columns(hit, fresh, names):
        for name in names:
            got, want = getattr(hit, name), getattr(fresh, name)
            np.testing.assert_array_equal(got, want, err_msg=name)
            assert got.dtype == want.dtype and got.shape == want.shape, name

    @pytest.mark.parametrize("three_d", [False, True], ids=["2d", "3d"])
    def test_tables_equal_column_by_column(self, small_geometry_3d, tmp_path, three_d):
        def build(cache):
            if three_d:
                return TrackGenerator3D(
                    small_geometry_3d, num_azim=4, azim_spacing=0.8,
                    polar_spacing=0.8, num_polar=2, cache=cache,
                ).generate()
            return make_generator(small_geometry_3d.radial, cache).generate()

        fresh = build(None)
        assert not build(TrackingCache(tmp_path)).timings.cache_hit
        hit = build(TrackingCache(tmp_path))
        assert hit.timings.cache_hit
        self.assert_same_columns(
            hit.track_table_2d(), fresh.track_table_2d(), TrackTable2D.columns()
        )
        assert fresh.track_table_2d().index_in_azim.any()
        assert hit.tracks == fresh.tracks and hit.chains == fresh.chains
        if three_d:
            self.assert_same_columns(
                hit.track_table(), fresh.track_table(), TrackTable3D.__slots__
            )


class TestKeying:
    def test_parameters_change_the_key(self, uo2, moderator, tmp_path):
        cache = TrackingCache(tmp_path)
        g = make_pin_geometry(uo2, moderator)
        a = make_generator(g, cache, spacing=0.3)
        b = make_generator(g, cache, spacing=0.2)
        assert cache.key_for(a) != cache.key_for(b)

    def test_geometry_change_invalidates(self, uo2, moderator, tmp_path):
        cache = TrackingCache(tmp_path)
        a = make_generator(make_pin_geometry(uo2, moderator, radius=0.54), cache)
        b = make_generator(make_pin_geometry(uo2, moderator, radius=0.50), cache)
        assert cache.key_for(a) != cache.key_for(b)

    def test_materials_do_not_affect_the_key(self, uo2, moderator, mox87, tmp_path):
        """Tracking never reads materials, so compositions share entries."""
        cache = TrackingCache(tmp_path)
        a = make_generator(make_pin_geometry(uo2, moderator), cache)
        b = make_generator(make_pin_geometry(mox87, moderator), cache)
        assert cache.key_for(a) == cache.key_for(b)

    def test_fingerprint_ignores_names(self, uo2, moderator):
        g1 = make_pin_geometry(uo2, moderator)
        g2 = make_pin_geometry(uo2, moderator)
        a = TrackGenerator(g1, num_azim=4, azim_spacing=0.3)
        b = TrackGenerator(g2, num_azim=4, azim_spacing=0.3)
        assert tracking_fingerprint(a) == tracking_fingerprint(b)


class TestConfiguration:
    def test_env_var_overrides_default_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"
        assert TrackingCache().cache_dir == tmp_path / "env-cache"

    def test_resolve_cache(self, tmp_path):
        assert resolve_cache(False) is None
        assert resolve_cache(False, tmp_path) is None
        cache = resolve_cache(True, tmp_path)
        assert isinstance(cache, TrackingCache)
        assert cache.cache_dir == tmp_path


class TestThreeD:
    def test_3d_roundtrip(self, small_geometry_3d, tmp_path):
        cache = TrackingCache(tmp_path)

        def build():
            return TrackGenerator3D(
                small_geometry_3d, num_azim=4, azim_spacing=0.8,
                polar_spacing=0.8, num_polar=2, cache=cache,
            ).generate()

        cold = build()
        assert not cold.timings.cache_hit
        warm = build()
        assert warm.timings.cache_hit
        assert len(cold.tracks3d) == len(warm.tracks3d)
        for a, b in zip(cold.tracks3d, warm.tracks3d):
            assert (a.s0, a.z0, a.s1, a.z1, a.theta) == (b.s0, b.z0, b.s1, b.z1, b.theta)
            assert (a.link_fwd, a.link_bwd) == (b.link_fwd, b.link_bwd)
            assert (a.vacuum_start, a.vacuum_end) == (b.vacuum_start, b.vacuum_end)
        # Chain tables are rebuilt from the restored 2D products by the
        # same builder, so the radial breakpoints agree bitwise.
        for index, table in cold.chain_tables.items():
            restored = warm.chain_tables[index]
            assert np.array_equal(table.fsrs, restored.fsrs)
            assert np.array_equal(table.bounds, restored.bounds)
        # A hit restores what a miss builds: the whole table (link and
        # flag columns included) and the stacks derived from it.
        for name in TrackTable3D.__slots__:
            np.testing.assert_array_equal(
                getattr(warm.track_table(), name), getattr(cold.track_table(), name)
            )
        assert len(cold.stacks) > 0
        assert warm.stacks == cold.stacks
        ref = cold.trace_all_3d()
        out = warm.trace_all_3d()
        assert np.array_equal(ref.offsets, out.offsets)
        assert np.array_equal(ref.fsr_ids, out.fsr_ids)
        assert np.array_equal(ref.lengths, out.lengths)

    def test_entry_of_another_archive_format_is_a_miss(
        self, small_geometry_3d, tmp_path, monkeypatch
    ):
        """The format version is part of the key: what a tree with another
        archive layout stored is never looked up, so never mis-read."""
        import repro.tracks.cache as cache_module

        def build():
            return TrackGenerator3D(
                small_geometry_3d, num_azim=4, azim_spacing=0.8,
                polar_spacing=0.8, num_polar=2, cache=TrackingCache(tmp_path),
            ).generate()

        with monkeypatch.context() as older:
            older.setattr(cache_module, "FORMAT_VERSION", cache_module.FORMAT_VERSION - 1)
            build()
        assert not build().timings.cache_hit
        assert build().timings.cache_hit

