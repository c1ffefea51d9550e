"""The z-interface join is array code; the dict join it replaced is its oracle.

``ZDecomposedSolver._match_interfaces`` pairs every exit slot of a slab
with the neighbour's entry slot of equal (chain, polar, quantised ``s``,
direction) through one sorted keyed join (:func:`join_last`). The dict
join it replaced is kept below, unchanged, and the two must give the same
routes row for row — and the same error when a partner is missing. The
routes read only track-table columns, so the storage method must not move
them.

The lattice cuts' route table (:func:`match_interface_tracks`) is array
code too; the per-track walk it replaced
(``tests/tracks/tracks2d_oracle.py``) must give the same rows on every
2D decomposition the suite solves.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DecompositionError
from repro.geometry import Geometry, Lattice
from repro.geometry.decomposition import decompose_lattice_geometry
from repro.geometry.universe import make_homogeneous_universe, make_pin_cell_universe
from repro.parallel.driver3d import ZDecomposedSolver, join_last
from repro.parallel.exchange import match_interface_tracks
from repro.runtime.antmoc import GEOMETRY_BUILDERS
from repro.tracks import TrackGenerator
from tests.tracks import tracks2d_oracle
from tests.tracks.tracks2d_oracle import Route as Route3D
from tests.tracks.tracks2d_oracle import route_rows


def dict_routes(solver):
    """The dict join ``_match_interfaces`` ran before the keyed join."""
    lengths = solver.radial.track_table_2d().chain_length

    def slots(domain: int, plane: float, up: bool, exits: bool):
        table = solver.domains[domain].trackgen.track_table()
        end = [1, 0] if exits else [0, 1]
        s = np.stack([table.s0, table.s1], axis=1)[:, end]
        z = np.stack([table.z0, table.z1], axis=1)[:, end]
        going_up = table.z1 > table.z0
        on = np.stack([going_up, ~going_up], axis=1) == up
        on &= np.abs(z - plane) < 1e-9 * max(plane, 1.0)
        if exits:
            on &= table.interface
        uid, direction = np.nonzero(on)
        s, chain = s[uid, direction], table.chain[uid]
        length = lengths[chain]
        s_red = np.mod(s, length)
        s_red[np.abs(s_red - length) < 1e-9 * np.maximum(length, 1.0)] = 0.0
        cell = np.round(s_red / (length * 1e-9 + 1e-12)).astype(np.int64)
        direction = direction.tolist()
        keys = zip(chain.tolist(), table.polar[uid].tolist(), cell.tolist(), direction)
        return zip(uid.tolist(), direction, keys, s.tolist())

    routes = []
    for d in range(solver.num_domains - 1):
        plane = solver.domains[d].geometry.axial_mesh.zmax
        for src, dst, up in ((d, d + 1, True), (d + 1, d, False)):
            entries = {  # of two entries on one key the later uid wins
                key: (uid, k) for uid, k, key, _ in slots(dst, plane, up, exits=False)
            }
            for uid, k, key, s in slots(src, plane, up, exits=True):
                if key not in entries:
                    what = f"backward track {uid}" if k else f"track {uid}"
                    if up and not k:
                        what += f" (chain {key[0]}, polar {key[1]}, s={s:.8g})"
                    raise DecompositionError(
                        f"z-interface: no {'upper' if up else 'lower'} partner for {what}"
                    )
                routes.append(Route3D(src, uid, k, dst, *entries[key]))
    return routes


def c5g7_slabs(nz, storage="EXP"):
    """The ``c3d-z2`` laydown (C5G7 3D mini, 4 axial layers) over ``nz`` slabs."""
    return ZDecomposedSolver(
        GEOMETRY_BUILDERS["c5g7-3d-mini"](), num_domains=nz, num_azim=4,
        azim_spacing=0.5, polar_spacing=0.8, num_polar=2, storage=storage,
    )


@pytest.mark.parametrize("storage", ["EXP", "OTF", "MANAGER", "CCM"])
@pytest.mark.parametrize("nz", [2, 4])
def test_routes_equal_the_dict_join(nz, storage):
    solver = c5g7_slabs(nz, storage)
    assert len(solver.routes) > 1000
    assert route_rows(solver.routes) == dict_routes(solver)


def test_a_missing_partner_is_the_same_error():
    solver = c5g7_slabs(2)
    solver.domains[1].trackgen.track_table().polar[:] += 7  # no upper key matches
    with pytest.raises(DecompositionError) as keyed:
        solver._match_interfaces()
    with pytest.raises(DecompositionError) as oracle:
        dict_routes(solver)
    assert str(keyed.value) == str(oracle.value)
    assert "no upper partner for" in str(keyed.value)


keys = st.lists(st.tuples(st.integers(0, 3), st.integers(-1, 2)), max_size=40)


@settings(max_examples=80, deadline=None)
@given(entries=keys, exits=keys)
def test_join_keeps_the_later_entry(entries, exits):
    table = {}
    for index, key in enumerate(entries):
        table[key] = index
    got = join_last(
        np.array(entries, dtype=np.int64).reshape(-1, 2),
        np.array(exits, dtype=np.int64).reshape(-1, 2),
    )
    assert got.tolist() == [table.get(key, -1) for key in exits]


def homogeneous(material, nx, ny, pitch):
    u = make_homogeneous_universe(material)
    return Geometry(Lattice([[u] * nx] * ny, pitch, pitch))


def pin_lattice(library):
    pin = make_pin_cell_universe(
        0.54, library["UO2"], library["Moderator"], num_rings=2, num_sectors=4
    )
    return Geometry(Lattice([[pin, pin], [pin, pin]], 1.26, 1.26))


#: The 2D decompositions the suite builds (``test_exchange``,
#: ``test_driver``, the engine tests, ``configs/c5g7-decomposed.yaml``):
#: (geometry from the fixtures, nx, ny, num_azim, azim_spacing).
RADIAL = {
    "exchange-2x1": (lambda f: homogeneous(f["moderator"], 2, 1, 2.0), 2, 1, 4, 0.5),
    "exchange-2x2": (lambda f: homogeneous(f["moderator"], 2, 2, 1.5), 2, 2, 4, 0.4),
    "engine-2x1": (lambda f: homogeneous(f["two_group_fissile"], 2, 1, 1.5), 2, 1, 4, 0.5),
    "driver-2x1": (lambda f: homogeneous(f["two_group_fissile"], 2, 2, 1.5), 2, 1, 4, 0.5),
    "driver-2x2": (lambda f: homogeneous(f["two_group_fissile"], 2, 2, 1.5), 2, 2, 4, 0.5),
    "pin-2x2": (lambda f: pin_lattice(f["library"]), 2, 2, 4, 0.5),
    "single-domain": (lambda f: homogeneous(f["two_group_fissile"], 1, 1, 1.5), 1, 1, 4, 0.5),
    "c5g7-decomposed": (lambda f: GEOMETRY_BUILDERS["c5g7-mini"](), 3, 3, 4, 0.4),
}


@pytest.mark.parametrize("case", sorted(RADIAL))
def test_radial_routes_equal_the_object_walk(case, request):
    build, nx, ny, num_azim, spacing = RADIAL[case]
    fixtures = {
        name: request.getfixturevalue(name)
        for name in ("moderator", "two_group_fissile", "library")
    }
    trackgens = [
        TrackGenerator(sub, num_azim=num_azim, azim_spacing=spacing, num_polar=2).generate()
        for sub in decompose_lattice_geometry(build(fixtures), nx, ny)
    ]
    routes = match_interface_tracks(trackgens)
    assert (len(routes) > 0) == (nx * ny > 1)
    assert route_rows(routes) == tracks2d_oracle.match_interface_tracks(trackgens)
