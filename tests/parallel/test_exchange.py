"""Tests for interface track matching across subdomains."""

import numpy as np
import pytest

import repro.parallel.exchange as exchange

from repro.errors import DecompositionError
from repro.geometry import Geometry, Lattice
from repro.geometry.decomposition import decompose_lattice_geometry
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel.exchange import ROUTE_COLUMNS, match_interface_tracks
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


def domain_pairs(routes):
    return set(map(tuple, routes[:, [0, 3]].tolist()))


class TestMatching:
    def test_every_interface_end_routed(self, two_domains):
        routes = match_interface_tracks(two_domains)
        interface_ends = sum(
            int(tg.track_table_2d().interface.sum()) for tg in two_domains
        )
        assert routes.shape == (interface_ends, len(ROUTE_COLUMNS))
        assert routes.dtype == np.intp
        assert len(routes) > 0

    def test_routes_cross_domains(self, two_domains):
        routes = match_interface_tracks(two_domains)
        assert np.all(routes[:, 0] != routes[:, 3])

    def test_routes_target_distinct_slots(self, two_domains):
        routes = match_interface_tracks(two_domains)
        assert len(np.unique(routes[:, 3:], axis=0)) == len(routes)

    def test_neighbor_pairs(self, two_domains):
        assert domain_pairs(match_interface_tracks(two_domains)) == {(0, 1), (1, 0)}

    def test_routes_geometrically_consistent(self, two_domains):
        """Route endpoints coincide in global coordinates."""
        routes = match_interface_tracks(two_domains)
        for src, src_track, src_dir, dst, dst_track, dst_dir in routes.tolist():
            x0, y0, x1, y1 = two_domains[src].track_table_2d().xyxy[src_track]
            exit_point = (x1, y1) if src_dir == 0 else (x0, y0)
            x0, y0, x1, y1 = two_domains[dst].track_table_2d().xyxy[dst_track]
            entry_point = (x0, y0) if dst_dir == 0 else (x1, y1)
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
        pairs = domain_pairs(match_interface_tracks(gens))
        # only face neighbours exchange: (0,1), (0,2), (1,3), (2,3) + reverses
        assert pairs == {(0, 1), (1, 0), (0, 2), (2, 0), (1, 3), (3, 1), (2, 3), (3, 2)}

    def test_empty_domains_rejected(self):
        with pytest.raises(DecompositionError):
            match_interface_tracks([])

    def test_routes_from_filter(self, two_domains):
        """The rows of one source domain partition the table by its column."""
        routes = match_interface_tracks(two_domains)
        from0 = routes[routes[:, 0] == 0]
        assert len(from0) > 0
        assert len(from0) + np.count_nonzero(routes[:, 0] == 1) == len(routes)


def test_a_self_route_is_refused(two_domains, monkeypatch):
    """Entries that are the exit slots themselves route each slot onto
    itself: refused, naming the route's six columns."""
    slots = exchange._interface_slots
    monkeypatch.setattr(
        exchange, "_interface_slots", lambda gens, entering: slots(gens, entering=False)
    )
    with pytest.raises(DecompositionError, match=(
        r"^self-route detected: Route\(src_domain=(\d+), src_track=(\d+), src_dir=([01]), "
        r"dst_domain=\1, dst_track=\2, dst_dir=\3\)$"
    )):
        match_interface_tracks(two_domains)
