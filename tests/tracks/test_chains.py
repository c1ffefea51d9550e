"""Tests for track linking and chain construction."""

import pytest

from repro.errors import TrackingError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.quadrature import AzimuthalQuadrature
from tests.tracks.tracks2d_oracle import radial_table


def make_box(material, boundary=None, w=4.0, h=3.0):
    u = make_homogeneous_universe(material)
    return Geometry(Lattice([[u]], w, h), boundary=boundary)


def tracked(geometry, num_azim=8, spacing=0.4):
    quad = AzimuthalQuadrature(num_azim, geometry.width, geometry.height, spacing)
    return radial_table(geometry, quad)


class TestReflectiveLinking:
    def test_all_ends_linked(self, moderator):
        g = make_box(moderator)
        for t in tracked(g).tracks:
            assert t.link_fwd is not None
            assert t.link_bwd is not None
            assert not t.vacuum_start and not t.vacuum_end

    def test_links_form_permutation(self, moderator):
        """Each (track, dir) entry slot receives exactly one link."""
        g = make_box(moderator)
        tracks = tracked(g).tracks
        targets = []
        for t in tracks:
            targets.append((t.link_fwd.track, t.link_fwd.forward))
            targets.append((t.link_bwd.track, t.link_bwd.forward))
        assert len(set(targets)) == 2 * len(tracks)

    def test_link_reciprocity(self, moderator):
        """Following a link forward then backward returns to the start."""
        g = make_box(moderator)
        tracks = tracked(g).tracks
        for t in tracks:
            link = t.link_fwd
            nxt = tracks[link.track]
            back = nxt.link_bwd if link.forward else nxt.link_fwd
            assert back.track == t.uid

    def test_linked_angles_complementary(self, moderator):
        g = make_box(moderator)
        tracks = tracked(g, num_azim=8).tracks
        half = 4
        for t in tracks:
            other = tracks[t.link_fwd.track]
            assert other.azim in (t.azim, half - 1 - t.azim)


class TestVacuumLinking:
    def test_vacuum_ends_unlinked(self, moderator):
        bc = {s: BoundaryCondition.VACUUM for s in ("xmin", "xmax", "ymin", "ymax")}
        g = make_box(moderator, boundary=bc)
        for t in tracked(g).tracks:
            assert t.link_fwd is None and t.vacuum_end
            assert t.link_bwd is None and t.vacuum_start

    def test_mixed_boundaries(self, moderator):
        bc = {"xmax": BoundaryCondition.VACUUM, "ymin": BoundaryCondition.VACUUM}
        g = make_box(moderator, boundary=bc)
        tracks = tracked(g).tracks
        vac_ends = sum(t.vacuum_end for t in tracks) + sum(t.vacuum_start for t in tracks)
        assert 0 < vac_ends < 2 * len(tracks)


class TestPeriodicLinking:
    def test_periodic_links_same_angle(self, moderator):
        bc = {s: BoundaryCondition.PERIODIC for s in ("xmin", "xmax", "ymin", "ymax")}
        g = make_box(moderator, boundary=bc)
        tracks = tracked(g).tracks
        for t in tracks:
            assert t.link_fwd is not None
            other = tracks[t.link_fwd.track]
            assert other.azim == t.azim
            assert t.link_fwd.forward  # periodic keeps the direction


class TestInterfaceMarking:
    def test_interface_flags(self, moderator):
        bc = {"xmax": BoundaryCondition.INTERFACE}
        g = make_box(moderator, boundary=bc)
        tracks = tracked(g).tracks
        flagged = [t for t in tracks if t.interface_end or t.interface_start]
        assert flagged
        for t in flagged:
            if t.interface_end:
                assert t.link_fwd is None and not t.vacuum_end


class TestChains:
    def test_reflective_chains_closed(self, moderator):
        g = make_box(moderator)
        table = tracked(g)
        chains = table.chains
        assert all(c.closed for c in chains)

    def test_chains_partition_tracks(self, moderator):
        g = make_box(moderator)
        table = tracked(g)
        tracks = table.tracks
        chains = table.chains
        seen = [uid for c in chains for uid, _ in c.elements]
        assert sorted(seen) == list(range(len(tracks)))

    def test_chain_length_is_sum_of_tracks(self, moderator):
        g = make_box(moderator)
        table = tracked(g)
        tracks = table.tracks
        for chain in table.chains:
            want = sum(tracks[uid].length for uid, _ in chain.elements)
            assert chain.length == pytest.approx(want)

    def test_chain_continuity(self, moderator):
        """Consecutive chain elements share an endpoint geometrically."""
        g = make_box(moderator)
        table = tracked(g)
        tracks = table.tracks
        for chain in table.chains:
            for (ua, fa), (ub, fb) in zip(chain.elements, chain.elements[1:]):
                ta, tb = tracks[ua], tracks[ub]
                end = (ta.x1, ta.y1) if fa else (ta.x0, ta.y0)
                start = (tb.x0, tb.y0) if fb else (tb.x1, tb.y1)
                assert end[0] == pytest.approx(start[0], abs=1e-8)
                assert end[1] == pytest.approx(start[1], abs=1e-8)

    def test_vacuum_chains_open(self, moderator):
        bc = {s: BoundaryCondition.VACUUM for s in ("xmin", "xmax", "ymin", "ymax")}
        g = make_box(moderator, boundary=bc)
        table = tracked(g)
        chains = table.chains
        assert all(not c.closed for c in chains)
        assert all(c.num_tracks == 1 for c in chains)

    def test_chain_offsets_monotone(self, moderator):
        g = make_box(moderator)
        chains = tracked(g).chains
        for c in chains:
            assert c.offsets[0] == 0.0
            assert all(b > a for a, b in zip(c.offsets, c.offsets[1:]))

    def test_chain_azim_label(self, moderator):
        g = make_box(moderator)
        table = tracked(g, num_azim=8)
        tracks = table.tracks
        for chain in table.chains:
            azims = {tracks[uid].azim for uid, _ in chain.elements}
            assert chain.azim == min(azims)
            assert len(azims) <= 2  # an angle and its complement

    def test_interface_chain_ends_flagged(self, moderator):
        bc = {"xmin": BoundaryCondition.INTERFACE, "xmax": BoundaryCondition.INTERFACE,
              "ymin": BoundaryCondition.VACUUM, "ymax": BoundaryCondition.VACUUM}
        g = make_box(moderator, boundary=bc)
        table = tracked(g)
        chains = table.chains
        assert any(c.starts_at_interface or c.ends_at_interface for c in chains)


class TestKeySpanLimit:
    """The linker has one path: a key table too wide for its packed int64
    codes is a named error, not a silent switch to another matcher."""

    def test_span_at_the_limit_raises(self, moderator, monkeypatch):
        import repro.tracks.chains as chains

        g = make_box(moderator)
        tracked(g)  # links under the shipped limit
        monkeypatch.setattr(chains, "MAX_KEY_SPAN", 1000)
        with pytest.raises(TrackingError, match=r"key span of \d+ .*packing limit 1000"):
            tracked(g)
