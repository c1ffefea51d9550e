"""Tests for 3D track stacks over chains."""

import math

import numpy as np
import pytest

from repro.errors import TrackingError
from repro.geometry import BoundaryCondition, Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.quadrature import AzimuthalQuadrature, tabuchi_yamamoto
from repro.tracks import generate_3d_stacks
from repro.tracks.stack3d import lay_3d_stacks, link_3d_stacks
from tests.tracks.tracks2d_oracle import radial_table


def make_chains(material, boundary=None, w=4.0, h=3.0, num_azim=4, spacing=0.6):
    u = make_homogeneous_universe(material)
    g = Geometry(Lattice([[u]], w, h), boundary=boundary)
    quad = AzimuthalQuadrature(num_azim, g.width, g.height, spacing)
    table = radial_table(g, quad)  # what the 3D laydown reads the chain columns of
    return table, table.tracks


class TestClosedChainStacks:
    @pytest.fixture()
    def stacks(self, moderator):
        chains, _ = make_chains(moderator)  # reflective => closed chains
        polar = tabuchi_yamamoto(4)
        tracks3d, stacks = generate_3d_stacks(
            chains, polar, 0.5, 0.0, 2.0,
            bc_zmin=BoundaryCondition.REFLECTIVE,
            bc_zmax=BoundaryCondition.REFLECTIVE,
        )
        return chains.chains, tracks3d, stacks

    def test_one_stack_per_chain_polar(self, stacks):
        chains, _, stack_list = stacks
        assert len(stack_list) == len(chains) * 2  # num_polar_half = 2

    def test_all_tracks_span_full_height(self, stacks):
        _, tracks3d, _ = stacks
        for t in tracks3d:
            assert {t.z0, t.z1} == {0.0, 2.0}

    def test_up_down_pairs(self, stacks):
        _, tracks3d, _ = stacks
        ups = sum(t.going_up for t in tracks3d)
        assert ups == len(tracks3d) - ups

    def test_reflective_links_complete(self, stacks):
        _, tracks3d, _ = stacks
        for t in tracks3d:
            assert t.link_fwd is not None
            assert t.link_bwd is not None

    def test_links_form_permutation(self, stacks):
        _, tracks3d, _ = stacks
        targets = []
        for t in tracks3d:
            targets.append((t.link_fwd.track, t.link_fwd.forward))
            targets.append((t.link_bwd.track, t.link_bwd.forward))
        assert len(set(targets)) == 2 * len(tracks3d)

    def test_reflection_toggles_family(self, stacks):
        """The forward link of an up track is a down track (z mirror)."""
        _, tracks3d, _ = stacks
        by_uid = {t.uid: t for t in tracks3d}
        for t in tracks3d:
            other = by_uid[t.link_fwd.track]
            if t.link_fwd.forward:
                assert other.going_up != t.going_up

    def test_advance_is_integer_spacings(self, stacks):
        """Closed-chain helix: ds_total is an exact multiple of the stack
        pitch, the property that makes reflections land on tracks."""
        chains, tracks3d, stack_list = stacks
        lengths = {c.index: c.length for c in chains}
        for stack in stack_list:
            uids = stack.track_uids
            some = [t for t in tracks3d if t.uid in set(uids)][0]
            ds = some.s1 - some.s0
            n_s = len(uids) // 2
            pitch = lengths[stack.chain] / n_s
            ratio = ds / pitch
            assert ratio == pytest.approx(round(ratio), abs=1e-9)


class TestOpenChainStacks:
    @pytest.fixture()
    def open_stacks(self, moderator):
        bc = {s: BoundaryCondition.VACUUM for s in ("xmin", "xmax", "ymin", "ymax")}
        chains, _ = make_chains(moderator, boundary=bc)
        polar = tabuchi_yamamoto(2)
        tracks3d, stacks = generate_3d_stacks(
            chains, polar, 0.6, 0.0, 2.0,
            bc_zmin=BoundaryCondition.REFLECTIVE,
            bc_zmax=BoundaryCondition.VACUUM,
        )
        return chains.chains, tracks3d, stacks

    def test_vacuum_top_unlinked(self, open_stacks):
        _, tracks3d, _ = open_stacks
        zmax = 2.0
        for t in tracks3d:
            if t.going_up and abs(t.z1 - zmax) < 1e-9:
                assert t.link_fwd is None and t.vacuum_end

    def test_reflective_bottom_linked(self, open_stacks):
        _, tracks3d, _ = open_stacks
        for t in tracks3d:
            if not t.going_up and abs(t.z1 - 0.0) < 1e-9 and t.s1 < t.s0 + t.ds:
                pass  # structural guard only
        down_hits_bottom = [
            t for t in tracks3d if not t.going_up and abs(t.z1) < 1e-9
        ]
        assert down_hits_bottom
        for t in down_hits_bottom:
            assert t.link_fwd is not None

    def test_radial_ends_are_vacuum(self, open_stacks):
        chains, tracks3d, _ = open_stacks
        lengths = {c.index: c.length for c in chains}
        side_exits = [
            t
            for t in tracks3d
            if abs(t.s1 - lengths[t.chain]) < 1e-9 and 1e-9 < t.z1 < 2.0 - 1e-9
        ]
        assert side_exits
        for t in side_exits:
            assert t.link_fwd is None and t.vacuum_end

    def test_theta_consistent_within_stack(self, open_stacks):
        _, tracks3d, stacks = open_stacks
        by_uid = {t.uid: t for t in tracks3d}
        for stack in stacks:
            thetas = {round(by_uid[u].theta, 12) for u in stack.track_uids}
            # exactly theta and pi - theta
            assert len(thetas) == 2
            a, b = sorted(thetas)
            assert a + b == pytest.approx(math.pi)


class TestValidation:
    def test_bad_spacing(self, moderator):
        chains, _ = make_chains(moderator)
        with pytest.raises(Exception, match="positive"):
            generate_3d_stacks(chains, tabuchi_yamamoto(2), -1.0, 0.0, 1.0)

    def test_bad_extent(self, moderator):
        chains, _ = make_chains(moderator)
        with pytest.raises(Exception, match="axial extent"):
            generate_3d_stacks(chains, tabuchi_yamamoto(2), 0.5, 1.0, 1.0)

    def test_finer_polar_spacing_more_tracks(self, moderator):
        chains, _ = make_chains(moderator)
        polar = tabuchi_yamamoto(2)
        coarse, _ = generate_3d_stacks(chains, polar, 1.0, 0.0, 2.0,
                                       bc_zmax=BoundaryCondition.REFLECTIVE)
        fine, _ = generate_3d_stacks(chains, polar, 0.2, 0.0, 2.0,
                                     bc_zmax=BoundaryCondition.REFLECTIVE)
        assert len(fine) > len(coarse)


class TestLinkCollisionDetection:
    """Two endpoints quantizing to one linking key must fail loudly: a
    silent hash-join collision would shadow one track's partner."""

    def test_duplicate_endpoints_raise_with_uids(self, moderator):
        chains, _ = make_chains(moderator)
        laydown = lay_3d_stacks(chains, tabuchi_yamamoto(2), 0.5, 0.0, 2.0)
        # Clone the last stack's first track onto the end of that stack.
        original = int(laydown["stack_ptr"][-2])
        clone = int(laydown["stack_ptr"][-1])
        laydown["szsz"] = np.vstack([laydown["szsz"], laydown["szsz"][original]])
        laydown["stack_ptr"][-1] += 1
        with pytest.raises(TrackingError, match="same linking key") as excinfo:
            link_3d_stacks(
                laydown, chains, 0.0, 2.0,
                BoundaryCondition.REFLECTIVE, BoundaryCondition.REFLECTIVE,
            )
        message = str(excinfo.value)
        assert str(original) in message
        assert str(clone) in message
