"""Tests for the batched per-chain radial segment tables."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.tracks import build_chain_tables
from repro.tracks.raytrace3d import chain_table_objects
from tests.tracks.tracks2d_oracle import chain_segments


def chain_tables(table, segments):
    """Per-chain object view of the CSR ``build_chain_tables`` returns."""
    return chain_table_objects(**build_chain_tables(table, segments))


@pytest.fixture()
def tracking(small_trackgen):
    return small_trackgen.track_table_2d(), small_trackgen.tracks, small_trackgen.segments


class TestBuildChainTables:
    def test_matches_per_chain_builder(self, tracking):
        table, tracks, segments = tracking
        chains = table.chains
        tables = chain_tables(table, segments)
        assert sorted(tables) == sorted(c.index for c in chains)
        for chain in chains:
            single = chain_segments(chain, tracks, segments)
            batched = tables[chain.index]
            assert batched.chain_index == chain.index
            np.testing.assert_array_equal(batched.fsrs, single.fsrs)
            # Breakpoints come from one global cumsum rebased per chain;
            # they agree with the per-chain running sum to a few ulps of
            # the total tracked length.
            np.testing.assert_allclose(
                batched.bounds, single.bounds, rtol=0.0, atol=1e-8
            )
            assert batched.bounds[0] == 0.0
            assert batched.length == pytest.approx(chain.length, rel=1e-12)

    def test_bounds_strictly_increasing(self, tracking):
        radial, _, segments = tracking
        for table in chain_tables(radial, segments).values():
            assert (np.diff(table.bounds) > 0.0).all()

    def test_empty_chain_list(self, tracking):
        _, _, segments = tracking
        no_chains = SimpleNamespace(
            chain_ptr=np.zeros(1, dtype=np.int64),
            el_uid=np.empty(0, dtype=np.int64),
            el_fwd=np.empty(0, dtype=bool),
        )
        assert chain_tables(no_chains, segments) == {}

    def test_pin_cell_tables(self, pin_cell_geometry):
        from repro.tracks import TrackGenerator

        trackgen = TrackGenerator(pin_cell_geometry, num_azim=8, azim_spacing=0.2).generate()
        tables = chain_tables(trackgen.track_table_2d(), trackgen.segments)
        for chain in trackgen.chains:
            single = chain_segments(chain, trackgen.tracks, trackgen.segments)
            np.testing.assert_array_equal(tables[chain.index].fsrs, single.fsrs)
            np.testing.assert_allclose(
                tables[chain.index].bounds, single.bounds, rtol=0.0, atol=1e-8
            )
