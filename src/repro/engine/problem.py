"""Engine-facing adapters over the decomposed solvers.

The execution engines are generic over *what* is being decomposed: a 2D
lattice geometry (:class:`~repro.parallel.driver.DecomposedSolver`) or a
3D axial stack (:class:`~repro.parallel.driver3d.ZDecomposedSolver`).
:class:`DecomposedProblem` is the narrow interface they share — per-domain
sweeps, flux blocks, reductions, the interface routing table and the
hooks that put an engine's schedule under the one power iteration
(:mod:`repro.solver.power`) — so one engine implementation serves both
drivers.

:class:`RoutePack` precompiles the route table into per-domain index
arrays for vectorised halo packing/unpacking, plus the per-pair traffic
totals that keep the ``mp`` engine's :class:`~repro.parallel.comm.CommStats`
bitwise identical to the ``inproc`` simulator's. :class:`EdgePack` refines
the same table down to directed domain-to-domain *edges* — the dependency
granularity of the ``mp-async`` mailbox protocol, where each edge carries
its own epoch sequence number and a consumer only waits for the edges it
actually reads.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.errors import DecompositionError
from repro.parallel.comm import CommStats
from repro.solver.cmfd import apply_engine_cmfd
from repro.solver.power import PowerIteration, Transport


class DecomposedProblem:
    """What an execution engine needs to know about a decomposed solve.

    ``solver.domains`` entries are :class:`~repro.solver.domain.Domain`
    objects — 2D lattice cuts and 3D axial slabs alike — so one adapter
    serves both drivers, and a slab's storage strategy regenerates its
    segments inside whichever worker sweeps it.
    """

    def __init__(self, solver) -> None:
        self.domains = solver.domains
        self.num_domains = len(solver.domains)
        self.num_fsrs_total = solver.num_fsrs_total
        self.num_groups = solver.domains[0].terms.num_groups
        self.routes = tuple(solver.routes)
        self.max_iterations = solver.max_iterations
        self.keff_tolerance = solver.keff_tolerance
        self.source_tolerance = solver.source_tolerance
        #: Global coarse CMFD problem
        #: (:class:`~repro.solver.cmfd.CmfdProblem`) when the driver
        #: enabled acceleration, else ``None``. Engines that see one run
        #: the coarse solve between sweeps: per-domain current tallies
        #: (``sweeper(d).current_tally``) reduce in rank order, the
        #: prolongation multiplies the normalised flux, and each domain's
        #: stored boundary flux is rescaled — all deterministic, so every
        #: engine stays bitwise-equal with CMFD on.
        self.cmfd = solver.cmfd_problem

    def rows(self, d: int) -> slice:
        """Domain ``d``'s contiguous row range in a global (R_total, ...) array."""
        dom = self.domains[d]
        return slice(dom.fsr_offset, dom.fsr_offset + dom.num_fsrs)

    def block(self, d: int, array: np.ndarray) -> np.ndarray:
        """Domain ``d``'s contiguous slice of a global (R_total, ...) array."""
        return array[self.rows(d)]

    def sweep_domain(self, d: int, phi_block: np.ndarray, keff: float) -> np.ndarray:
        """One local transport sweep; returns the new local scalar flux."""
        dom = self.domains[d]
        reduced = dom.terms.reduced_source(phi_block, keff)
        return dom.finalize(dom.sweep(reduced), reduced)

    def production(self, d: int, phi_block: np.ndarray) -> float:
        """Domain ``d``'s fission-production contribution to the allreduce."""
        dom = self.domains[d]
        return dom.terms.fission_production(phi_block, dom.volumes)

    def total_production(self, flux: np.ndarray) -> float:
        """Fission production of a global flux, summed in rank order
        without touching the communicator's accounting."""
        return sum(
            self.production(d, self.block(d, flux)) for d in range(self.num_domains)
        )

    def fission_source(self, d: int, phi_block: np.ndarray) -> np.ndarray:
        """Domain ``d``'s per-FSR fission emission density (R_d,)."""
        return self.domains[d].terms.fission_source(phi_block)

    def sweeper(self, d: int):
        """Domain ``d``'s sweep object (``psi_in`` / ``psi_out_last`` slots)."""
        return self.domains[d].sweeper

    @property
    def slot_shape(self) -> tuple[int, ...]:
        """Trailing shape of one boundary-flux slot (``psi[track, dir]``)."""
        return tuple(self.sweeper(0).psi_in.shape[2:])

    def power_iteration(
        self, comm, timer, current_rows, prolong, sweep=None
    ) -> PowerIteration:
        """This problem's eigenvalue iteration (one state) over an
        engine's schedule. Every engine reduces production through
        ``comm.allreduce`` in rank order, gathers the fission source in
        rank order and runs the same coarse solve; an engine supplies
        ``sweep(phi, keff, active)`` (its sweeps plus halo exchange),
        ``current_rows()`` (the per-domain current tallies of that sweep)
        and ``prolong(phi, factors)`` (apply the per-cell CMFD multiplier
        to the flux and the stored boundary flux, or publish it to the
        workers that own them). An engine that runs its own schedule
        over the iteration's steps leaves ``sweep`` out. CMFD time lands
        in ``timer`` as ``engine_solve/cmfd``.
        """
        ranks = range(self.num_domains)

        def accelerate(state, swept, phi, pnorm, keff):
            keff, factors, step = apply_engine_cmfd(
                self.cmfd, current_rows(), swept, pnorm, keff, self.total_production
            )
            prolong(phi, factors)
            return keff, step

        transport = Transport(
            sweep=sweep,
            production=lambda state, flux: comm.allreduce(
                [self.production(d, self.block(d, flux)) for d in ranks]
            ),
            fission_source=lambda state, phi: np.concatenate(
                [self.fission_source(d, self.block(d, phi)) for d in ranks]
            ),
            accelerate=accelerate if self.cmfd is not None else None,
        )
        return PowerIteration(transport, self, timer, cmfd_stage="engine_solve/cmfd")


class RoutePack:
    """Vectorised form of a problem's routing table.

    Per domain, the pack holds the route indices, track ids and direction
    bits of its outgoing and incoming interface slots, so workers can move
    the whole halo with two fancy-indexed copies instead of a Python loop
    per route. Destination slots must be unique — a duplicate would make
    the vectorised scatter order-dependent — and are validated here.
    """

    def __init__(self, problem: DecomposedProblem) -> None:
        routes = problem.routes
        self.num_routes = len(routes)
        self.slot_shape = problem.slot_shape if routes else ()
        self.slot_bytes = int(8 * np.prod(self.slot_shape)) if routes else 0

        targets = [(r.dst_domain, r.dst_track, r.dst_dir) for r in routes]
        if len(set(targets)) != len(targets):
            raise DecompositionError(
                "route table has duplicate destination slots; the vectorised "
                "halo exchange requires one writer per (domain, track, dir)"
            )

        def _pack(selector):
            by_domain: dict[int, list[tuple[int, int, int]]] = {}
            for i, r in enumerate(routes):
                dom, track, dirn = selector(i, r)
                by_domain.setdefault(dom, []).append((i, track, dirn))
            return {
                dom: tuple(np.array(col, dtype=np.intp) for col in zip(*rows))
                for dom, rows in by_domain.items()
            }

        self._out = _pack(lambda i, r: (r.src_domain, r.src_track, r.src_dir))
        self._in = _pack(lambda i, r: (r.dst_domain, r.dst_track, r.dst_dir))
        self.pair_counts = Counter((r.src_domain, r.dst_domain) for r in routes)
        self._empty = (
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.intp),
            np.empty(0, dtype=np.intp),
        )

    def outgoing(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(route_idx, tracks, dirs)`` of slots leaving domain ``d``."""
        return self._out.get(d, self._empty)

    def incoming(self, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(route_idx, tracks, dirs)`` of slots entering domain ``d``."""
        return self._in.get(d, self._empty)

    def account_iteration(self, stats: CommStats) -> None:
        """Tally one iteration's halo traffic exactly as ``inproc`` would.

        The simulator records one message of ``slot_bytes`` per route; the
        aggregate form below produces identical totals and per-pair bytes
        without walking every route each iteration.
        """
        stats.messages_sent += self.num_routes
        stats.bytes_sent += self.num_routes * self.slot_bytes
        for pair, n in self.pair_counts.items():
            stats.per_pair_bytes[pair] += n * self.slot_bytes


class EdgePack(RoutePack):
    """Route table grouped by directed domain-to-domain edge.

    The mailbox protocol synchronises per *edge* ``(src_domain,
    dst_domain)``: the producer packs one edge's slots as soon as the
    source domain's sweep finishes and publishes the edge's epoch counter;
    a consumer waits only for the epoch counters of the edges entering the
    domain it is about to sweep. The pack precompiles, per edge, the halo
    slot indices plus the source/destination ``(track, dir)`` gather and
    scatter arrays, and per domain the edge ids it produces and consumes.
    Edge ids are assigned in sorted ``(src, dst)`` order so the layout is
    deterministic across processes.

    The mailbox halo is double-buffered as one flat array of
    ``2 * num_slots`` slots, parity ``p`` of route ``r`` at
    ``p * num_slots + r`` (:meth:`edge_slots`).
    """

    def __init__(self, problem: DecomposedProblem) -> None:
        super().__init__(problem)
        by_edge: dict[tuple[int, int], list[int]] = {}
        for i, r in enumerate(problem.routes):
            by_edge.setdefault((r.src_domain, r.dst_domain), []).append(i)
        self.edge_pairs: tuple[tuple[int, int], ...] = tuple(sorted(by_edge))
        self.num_edges = len(self.edge_pairs)
        #: Slots per halo parity (never zero, so the arena field exists).
        self.num_slots = max(self.num_routes, 1)
        routes = problem.routes
        self._edge_slots: list[tuple[np.ndarray, np.ndarray]] = []
        self._edge_src: list[tuple[np.ndarray, np.ndarray]] = []
        self._edge_dst: list[tuple[np.ndarray, np.ndarray]] = []
        out_edges: dict[int, list[int]] = {}
        in_edges: dict[int, list[int]] = {}
        for e, pair in enumerate(self.edge_pairs):
            idx = by_edge[pair]
            edge_routes = np.array(idx, dtype=np.intp)
            self._edge_slots.append((edge_routes, edge_routes + self.num_slots))
            self._edge_src.append(
                (
                    np.array([routes[i].src_track for i in idx], dtype=np.intp),
                    np.array([routes[i].src_dir for i in idx], dtype=np.intp),
                )
            )
            self._edge_dst.append(
                (
                    np.array([routes[i].dst_track for i in idx], dtype=np.intp),
                    np.array([routes[i].dst_dir for i in idx], dtype=np.intp),
                )
            )
            out_edges.setdefault(pair[0], []).append(e)
            in_edges.setdefault(pair[1], []).append(e)
        self._out_edges = {d: tuple(es) for d, es in out_edges.items()}
        self._in_edges = {d: tuple(es) for d, es in in_edges.items()}

    def out_edges(self, d: int) -> tuple[int, ...]:
        """Edge ids whose halo slots domain ``d`` produces."""
        return self._out_edges.get(d, ())

    def in_edges(self, d: int) -> tuple[int, ...]:
        """Edge ids whose halo slots domain ``d`` consumes."""
        return self._in_edges.get(d, ())

    def edge_routes(self, e: int) -> np.ndarray:
        """Route indices carried by edge ``e``."""
        return self._edge_slots[e][0]

    def edge_slots(self, e: int, parity: int) -> np.ndarray:
        """Flat halo slots of edge ``e`` in buffer ``parity`` (0 or 1)."""
        return self._edge_slots[e][parity]

    def edge_source(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """``(tracks, dirs)`` gather indices packing edge ``e``'s slots."""
        return self._edge_src[e]

    def edge_target(self, e: int) -> tuple[np.ndarray, np.ndarray]:
        """``(tracks, dirs)`` scatter indices unpacking edge ``e``'s slots."""
        return self._edge_dst[e]
