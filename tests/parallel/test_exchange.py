"""Tests for interface track matching across subdomains."""

import pytest

from repro.errors import DecompositionError
from repro.geometry import Geometry, Lattice
from repro.geometry.decomposition import decompose_lattice_geometry
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel.exchange import match_interface_tracks
from repro.tracks import TrackGenerator


@pytest.fixture()
def two_domains(moderator):
    u = make_homogeneous_universe(moderator)
    g = Geometry(Lattice([[u, u]], 2.0, 2.0))
    subs = decompose_lattice_geometry(g, 2, 1)
    return [
        TrackGenerator(s, num_azim=4, azim_spacing=0.5, num_polar=2).generate()
        for s in subs
    ]


class TestMatching:
    def test_every_interface_end_routed(self, two_domains):
        exchange = match_interface_tracks(two_domains)
        interface_ends = sum(
            t.interface_start + t.interface_end
            for tg in two_domains
            for t in tg.tracks
        )
        assert exchange.num_routes == interface_ends
        assert exchange.num_routes > 0

    def test_routes_cross_domains(self, two_domains):
        exchange = match_interface_tracks(two_domains)
        for route in exchange.routes:
            assert route.src_domain != route.dst_domain

    def test_routes_target_distinct_slots(self, two_domains):
        exchange = match_interface_tracks(two_domains)
        targets = [(r.dst_domain, r.dst_track, r.dst_dir) for r in exchange.routes]
        assert len(set(targets)) == len(targets)

    def test_neighbor_pairs(self, two_domains):
        exchange = match_interface_tracks(two_domains)
        assert exchange.neighbor_pairs() == {(0, 1), (1, 0)}

    def test_routes_geometrically_consistent(self, two_domains):
        """Route endpoints coincide in global coordinates."""
        exchange = match_interface_tracks(two_domains)
        for r in exchange.routes:
            src = two_domains[r.src_domain].tracks[r.src_track]
            dst = two_domains[r.dst_domain].tracks[r.dst_track]
            exit_point = (src.x1, src.y1) if r.src_dir == 0 else (src.x0, src.y0)
            entry_point = (dst.x0, dst.y0) if r.dst_dir == 0 else (dst.x1, dst.y1)
            assert exit_point[0] == pytest.approx(entry_point[0], abs=1e-8)
            assert exit_point[1] == pytest.approx(entry_point[1], abs=1e-8)

    def test_four_domain_grid(self, moderator):
        u = make_homogeneous_universe(moderator)
        g = Geometry(Lattice([[u, u], [u, u]], 1.5, 1.5))
        subs = decompose_lattice_geometry(g, 2, 2)
        gens = [
            TrackGenerator(s, num_azim=4, azim_spacing=0.4, num_polar=2).generate()
            for s in subs
        ]
        exchange = match_interface_tracks(gens)
        pairs = exchange.neighbor_pairs()
        # only face neighbours exchange: (0,1), (0,2), (1,3), (2,3) + reverses
        assert pairs == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)}

    def test_empty_domains_rejected(self):
        with pytest.raises(DecompositionError):
            match_interface_tracks([])

    def test_routes_from_filter(self, two_domains):
        exchange = match_interface_tracks(two_domains)
        from0 = exchange.routes_from(0)
        assert all(r.src_domain == 0 for r in from0)
        assert len(from0) + len(exchange.routes_from(1)) == exchange.num_routes
