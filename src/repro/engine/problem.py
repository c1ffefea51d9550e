"""Engine-facing adapters over the decomposed solvers.

The execution engines are generic over *what* is being decomposed: a 2D
lattice geometry (:class:`~repro.parallel.driver.DecomposedSolver`) or a
3D axial stack (:class:`~repro.parallel.driver3d.ZDecomposedSolver`).
:class:`DecomposedProblem` is the narrow interface they share — per-domain
sweeps, flux blocks, reductions, the interface routing table and the
hooks that put an engine's schedule under the one power iteration
(:mod:`repro.solver.power`) — so one engine implementation serves both
drivers.

:class:`RoutePack` groups the columns of the route table
(:mod:`repro.parallel.exchange`) into per-domain index arrays for
vectorised halo packing/unpacking, plus the per-pair traffic totals that
keep the ``mp`` engine's :class:`~repro.parallel.comm.CommStats` bitwise
identical to the ``inproc`` simulator's. :class:`EdgePack` refines the
same columns down to directed domain-to-domain *edges* — the dependency
granularity of the ``mp-async`` mailbox protocol, where each edge carries
its own epoch sequence number and a consumer only waits for the edges it
actually reads.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.errors import DecompositionError
from repro.parallel.comm import CommStats
from repro.runtime.cpus import trim_heap
from repro.solver.cmfd import (
    apply_engine_cmfd,
    coarse_problem,
    domain_current_tally,
    traversal_entry_cells,
)
from repro.solver.power import PowerIteration, Transport


class DecomposedProblem:
    """What an execution engine needs to know about a decomposed solve.

    ``solver.domains`` entries are :class:`~repro.solver.domain.Domain`
    objects — 2D lattice cuts and 3D axial slabs alike — so one adapter
    serves both drivers. They arrive with their tracks laid down; the
    solve's one-time start-up step builds each in the process that sweeps
    it (:meth:`build`) and hands the solve's parent what it needs of them
    (:meth:`adopt`), so a slab's storage strategy segments and regenerates
    inside whichever worker sweeps it.
    """

    def __init__(self, solver) -> None:
        self.domains = solver.domains
        self.num_domains = len(solver.domains)
        self.num_fsrs_total = solver.num_fsrs_total
        self.num_groups = solver.domains[0].terms.num_groups
        #: The driver's route table, ``(N, 6)``: source domain, track,
        #: direction, destination domain, track, direction.
        self.route_columns: np.ndarray = solver.routes
        self.max_iterations = solver.max_iterations
        self.keff_tolerance = solver.keff_tolerance
        self.source_tolerance = solver.source_tolerance
        #: The global coarse mesh when the driver enabled CMFD, else
        #: ``None``; the coarse problem over it is :attr:`cmfd`.
        self.mesh = solver.cmfd_mesh
        self.cmfd_options = solver.cmfd_options
        #: Global coarse CMFD problem
        #: (:class:`~repro.solver.cmfd.CmfdProblem`), built by
        #: :meth:`adopt` in the process that runs the power iteration;
        #: ``None`` without acceleration, and in a forked worker. Engines
        #: that see one run the coarse solve between sweeps: per-domain
        #: current tallies (``sweeper(d).current_tally``) reduce in rank
        #: order, the prolongation multiplies the normalised flux, and each
        #: domain's stored boundary flux is rescaled — all deterministic, so
        #: every engine stays bitwise-equal with CMFD on.
        self.cmfd: Any = None
        #: Per-domain row offsets into a stacked ``currents`` array
        #: (:meth:`current_rows`): the coarse problem's, or what a worker
        #: was told of them.
        self.row_offsets: np.ndarray | None = None

    # ------------------------------------------------------------ start-up

    def build(
        self,
        owned: Sequence[int],
        volumes: np.ndarray,
        entries: np.ndarray,
        rendezvous: Callable[[], object],
    ) -> dict[int, tuple[int, int, np.ndarray | None]]:
        """The start-up step of whoever sweeps the ``owned`` domains: the
        caller of an ``inproc`` solve (all of them), or one forked worker.

        Builds each owned domain and writes its volumes into its rows of
        the global ``volumes``. With CMFD on it also writes, for every
        route slot an owned domain receives, that slot's entry coarse cell
        into ``entries`` (one per route), waits in ``rendezvous`` until
        every domain's are in, then lays out each owned domain's current
        tally with its interface exits resolved through them. Returns
        what the parent needs that no shared field of fixed size can
        carry, per owned domain: its ``segments_3d`` and
        ``tracks_3d_resident`` counts and its tally's pair table
        (``None`` without CMFD).
        """
        for d in owned:
            volumes[self.rows(d)] = self.domains[d].build().volumes
        src_domain, src_track, src_dir, dst_domain, dst_track, dst_dir = self.route_columns.T
        plans = {d: self.domains[d].plan for d in owned} if self.mesh is not None else {}
        for d, plan in plans.items():
            received = np.nonzero(dst_domain == d)[0]
            first = traversal_entry_cells(plan, self.cells(d))
            entries[received] = first[dst_track[received], dst_dir[received]]
        rendezvous()
        pairs: dict[int, np.ndarray] = {}
        for d, plan in plans.items():
            sent = np.nonzero(src_domain == d)[0]
            exits = (src_track[sent], src_dir[sent], entries[sent].astype(np.int64))
            tally = domain_current_tally(plan, self.cells(d), self.num_groups, exits)
            self.sweeper(d).current_tally = tally
            pairs[d] = tally.pairs
        trim_heap()  # the build's transients: not under the sweeps' working set
        return {
            d: (self.domains[d].segments_3d, self.domains[d].tracks_3d_resident, pairs.get(d))
            for d in owned
        }

    def adopt(
        self, built: Sequence[Mapping[int, tuple[int, int, np.ndarray | None]]],
        volumes: np.ndarray,
    ) -> None:
        """The parent's half of the start-up step: take every domain's
        volumes (rows of the global ``volumes``) and workload counts, and
        with CMFD on build the coarse problem from the pair tables of all
        domains' tallies. ``built`` holds what each :meth:`build` returned."""
        merged = {d: answer for per_domain in built for d, answer in per_domain.items()}
        for d, dom in enumerate(self.domains):
            dom.volumes = np.array(volumes[self.rows(d)])
            dom.segments_3d, dom.tracks_3d_resident, _ = merged[d]
        if self.mesh is not None:
            self.cmfd = coarse_problem(
                self.mesh, [dom.terms for dom in self.domains], np.array(volumes),
                self.cmfd_options, [merged[d][2] for d in range(self.num_domains)],
            )
            self.row_offsets = self.cmfd.row_offsets

    def cells(self, d: int) -> np.ndarray:
        """Domain ``d``'s coarse cell per local FSR."""
        assert self.mesh is not None
        return self.block(d, self.mesh.cellmap)

    def current_rows(self, flat: Any, d: int) -> Any:
        """Domain ``d``'s tally rows of a stacked ``currents`` array."""
        assert self.row_offsets is not None
        return flat[self.row_offsets[d] : self.row_offsets[d + 1]]

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
        return self.domains[0].slot_shape

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
        routes = problem.route_columns
        self.num_routes = len(routes)
        self.slot_shape = problem.slot_shape if self.num_routes else ()
        self.slot_bytes = int(8 * np.prod(self.slot_shape)) if self.num_routes else 0
        src_domain, src_track, src_dir, dst_domain, dst_track, dst_dir = routes.T

        targets = (dst_domain * (dst_track.max(initial=0) + 1) + dst_track) * 2 + dst_dir
        if np.unique(targets).size != self.num_routes:
            raise DecompositionError(
                "route table has duplicate destination slots; the vectorised "
                "halo exchange requires one writer per (domain, track, dir)"
            )
        self._out = _by_domain(src_domain, src_track, src_dir)
        self._in = _by_domain(dst_domain, dst_track, dst_dir)
        #: Per route, its ``(src, dst)`` domain pair encoded as one key,
        #: and the route count per pair in sorted ``(src, dst)`` order.
        self._pair_key = src_domain * problem.num_domains + dst_domain
        keys, counts = np.unique(self._pair_key, return_counts=True)
        self.pair_counts = {
            divmod(key, problem.num_domains): n
            for key, n in zip(keys.tolist(), counts.tolist())
        }
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


def _by_domain(
    domain: np.ndarray, track: np.ndarray, direction: np.ndarray
) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per domain named in ``domain``, the ``(route_idx, tracks, dirs)`` of
    its slots in route order."""
    packs: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for d in np.unique(domain).tolist():
        idx = np.flatnonzero(domain == d)
        packs[d] = (idx, track[idx], direction[idx])
    return packs


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
        self.edge_pairs: tuple[tuple[int, int], ...] = tuple(self.pair_counts)
        self.num_edges = len(self.edge_pairs)
        #: Slots per halo parity (never zero, so the arena field exists).
        self.num_slots = max(self.num_routes, 1)
        _, src_track, src_dir, _, dst_track, dst_dir = problem.route_columns.T
        self._edge_slots: list[tuple[np.ndarray, np.ndarray]] = []
        self._edge_src: list[tuple[np.ndarray, np.ndarray]] = []
        self._edge_dst: list[tuple[np.ndarray, np.ndarray]] = []
        out_edges: dict[int, list[int]] = {}
        in_edges: dict[int, list[int]] = {}
        for e, (src, dst) in enumerate(self.edge_pairs):
            idx = np.flatnonzero(self._pair_key == src * problem.num_domains + dst)
            self._edge_slots.append((idx, idx + self.num_slots))
            self._edge_src.append((src_track[idx], src_dir[idx]))
            self._edge_dst.append((dst_track[idx], dst_dir[idx]))
            out_edges.setdefault(src, []).append(e)
            in_edges.setdefault(dst, []).append(e)
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
