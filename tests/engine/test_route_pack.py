"""The halo packs group the route table's columns with array code.

:class:`~repro.engine.problem.RoutePack` and
:class:`~repro.engine.problem.EdgePack` once walked a tuple of per-route
objects in Python loops. Those loops are kept below, unchanged but for
reading :class:`~tests.tracks.tracks2d_oracle.Route` rows, as the oracle:
every index array the vectorised packs hold must equal the oracle's, value
and dtype, on a 2D lattice decomposition, on z-slabs and on a single
domain with no routes — and a table with a repeated destination slot is
refused, exactly when the oracle's set of targets is shorter than the
table.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.problem import DecomposedProblem, EdgePack, RoutePack
from repro.errors import DecompositionError
from repro.geometry import Geometry, Lattice
from repro.geometry.universe import make_homogeneous_universe
from repro.parallel.driver import DecomposedSolver
from repro.parallel.driver3d import ZDecomposedSolver
from repro.runtime.antmoc import GEOMETRY_BUILDERS
from tests.tracks.tracks2d_oracle import route_rows


def oracle_route_pack(routes):
    """``RoutePack.__init__``'s per-route loops: ``(out, in, pair_counts)``."""

    def _pack(selector):
        by_domain: dict[int, list[tuple[int, int, int]]] = {}
        for i, r in enumerate(routes):
            dom, track, dirn = selector(i, r)
            by_domain.setdefault(dom, []).append((i, track, dirn))
        return {
            dom: tuple(np.array(col, dtype=np.intp) for col in zip(*rows))
            for dom, rows in by_domain.items()
        }

    out = _pack(lambda i, r: (r.src_domain, r.src_track, r.src_dir))
    into = _pack(lambda i, r: (r.dst_domain, r.dst_track, r.dst_dir))
    return out, into, Counter((r.src_domain, r.dst_domain) for r in routes)


def oracle_edge_pack(routes, num_slots):
    """``EdgePack.__init__``'s per-route loops: ``(edge_pairs, slots, src,
    dst, out_edges, in_edges)``."""
    by_edge: dict[tuple[int, int], list[int]] = {}
    for i, r in enumerate(routes):
        by_edge.setdefault((r.src_domain, r.dst_domain), []).append(i)
    edge_pairs = tuple(sorted(by_edge))
    edge_slots, edge_src, edge_dst = [], [], []
    out_edges: dict[int, list[int]] = {}
    in_edges: dict[int, list[int]] = {}
    for e, pair in enumerate(edge_pairs):
        idx = by_edge[pair]
        edge_routes = np.array(idx, dtype=np.intp)
        edge_slots.append((edge_routes, edge_routes + num_slots))
        edge_src.append(
            (
                np.array([routes[i].src_track for i in idx], dtype=np.intp),
                np.array([routes[i].src_dir for i in idx], dtype=np.intp),
            )
        )
        edge_dst.append(
            (
                np.array([routes[i].dst_track for i in idx], dtype=np.intp),
                np.array([routes[i].dst_dir for i in idx], dtype=np.intp),
            )
        )
        out_edges.setdefault(pair[0], []).append(e)
        in_edges.setdefault(pair[1], []).append(e)
    return edge_pairs, edge_slots, edge_src, edge_dst, out_edges, in_edges


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.intp
        np.testing.assert_array_equal(g, w)


def assert_packs_equal_the_oracle(problem):
    routes = route_rows(problem.route_columns)
    pack = EdgePack(problem)
    out, into, pair_counts = oracle_route_pack(routes)
    empty = (np.empty(0, dtype=np.intp),) * 3
    assert pack.num_routes == len(routes)
    for d in range(problem.num_domains):
        assert_same_arrays(pack.outgoing(d), out.get(d, empty))
        assert_same_arrays(pack.incoming(d), into.get(d, empty))
    assert pack.pair_counts == pair_counts
    assert RoutePack(problem).pair_counts == pair_counts

    edge_pairs, slots, src, dst, out_edges, in_edges = oracle_edge_pack(routes, pack.num_slots)
    assert pack.edge_pairs == edge_pairs
    assert pack.num_edges == len(edge_pairs)
    for e in range(pack.num_edges):
        assert_same_arrays((pack.edge_slots(e, 0), pack.edge_slots(e, 1)), slots[e])
        assert_same_arrays((pack.edge_routes(e),), slots[e][:1])
        assert_same_arrays(pack.edge_source(e), src[e])
        assert_same_arrays(pack.edge_target(e), dst[e])
    for d in range(problem.num_domains):
        assert pack.out_edges(d) == tuple(out_edges.get(d, ()))
        assert pack.in_edges(d) == tuple(in_edges.get(d, ()))


def lattice_problem(material, nx, ny):
    u = make_homogeneous_universe(material)
    geometry = Geometry(Lattice([[u] * nx] * ny, 1.5, 1.5))
    return DecomposedProblem(DecomposedSolver(
        geometry, nx, ny, num_azim=4, azim_spacing=0.5, num_polar=2, engine="inproc",
    ))


def test_lattice_2x2_packs_equal_the_oracle(two_group_fissile):
    problem = lattice_problem(two_group_fissile, 2, 2)
    assert len(problem.route_columns) > 0
    assert_packs_equal_the_oracle(problem)


@pytest.mark.parametrize("nz", [2, 4])
def test_z_slab_packs_equal_the_oracle(nz):
    problem = DecomposedProblem(ZDecomposedSolver(
        GEOMETRY_BUILDERS["c5g7-3d-mini"](), num_domains=nz, num_azim=4,
        azim_spacing=0.5, polar_spacing=0.8, num_polar=2, engine="inproc",
    ))
    assert len(problem.route_columns) > 1000
    assert_packs_equal_the_oracle(problem)


def test_single_domain_packs_are_empty(two_group_fissile):
    problem = lattice_problem(two_group_fissile, 1, 1)
    assert problem.route_columns.shape == (0, 6)
    assert_packs_equal_the_oracle(problem)
    pack = EdgePack(problem)
    assert (pack.num_edges, pack.num_slots, pack.slot_bytes) == (0, 1, 0)


def test_a_repeated_destination_is_refused(two_group_fissile):
    problem = lattice_problem(two_group_fissile, 2, 1)
    problem.route_columns = problem.route_columns.copy()
    problem.route_columns[1, 3:] = problem.route_columns[0, 3:]
    with pytest.raises(DecompositionError, match="duplicate destination slots"):
        RoutePack(problem)


slots = st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 1))


@settings(max_examples=80, deadline=None)
@given(table=st.lists(st.tuples(slots, slots), max_size=30))
def test_random_tables_pack_as_the_oracle(table):
    """Any table: refused exactly when a destination repeats, else packed
    as the oracle packs it."""
    columns = np.array([src + dst for src, dst in table], dtype=np.intp).reshape(-1, 6)
    problem = SimpleNamespace(route_columns=columns, slot_shape=(2, 3), num_domains=3)
    targets = [dst for _, dst in table]
    if len(set(targets)) != len(targets):
        with pytest.raises(DecompositionError, match="duplicate destination slots"):
            EdgePack(problem)
    else:
        assert_packs_equal_the_oracle(problem)
