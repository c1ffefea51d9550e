"""Dependency-driven async multiprocess engine: ``--engine=mp-async``.

The Buffered Synchronous scheme (:mod:`repro.engine.mp`) runs two global
``Barrier(W+1)`` phases per iteration, so every worker serializes on the
slowest one twice per epoch and the parent performs the whole production
reduction, flux normalisation and fission tally serially while the pool
idles. This engine replaces both barriers with per-neighbour dependency
tracking, the host-side analogue of the paper's communication/compute
overlap on multi-GPU nodes:

* **per-edge mailboxes** — the halo is double-buffered per directed
  domain-to-domain edge (:class:`~repro.engine.problem.EdgePack`); the
  producer packs an edge's slots the moment the source domain's sweep
  block completes, then publishes a monotonic epoch sequence number
  (seqlock-style: payload first, counter second, so a counter that reads
  ``>= t`` guarantees iteration ``t-1``'s payload is fully visible);
* **lazy unpack** — a consumer waits only for the epoch counters of the
  edges entering the domain it is about to sweep, unpacking on first
  read; workers never wait on non-neighbours, and a worker whose inputs
  are already published starts its next sweep immediately;
* **grant/harvest eigenvalue loop** — the parent never touches the flux:
  workers normalise their own blocks and tally their own fission source
  and production, the parent only sums the per-domain productions in rank
  order (keeping k-eff bitwise equal to ``inproc``) and publishes a
  *grant* word ``(keff, norm, stop-mode, epoch)`` that releases the next
  iteration. Convergence is checked one grant behind the workers, so the
  check overlaps the next sweep; on early convergence exactly one
  speculative sweep is discarded (it writes only ``phi_new``, ``halo``
  and ``prod`` — never the published flux — and is never accounted).

Double-buffer safety: a worker needs grant ``t+1`` to start iteration
``t+1``, and the parent issues that grant only after *every* worker
finished iteration ``t`` — so a producer can never rewrite the halo
parity a lagging consumer still has to read. Results stay bitwise equal
to ``inproc``/``mp``: identical float op order, identical route tables,
identical traffic accounting.
"""

from __future__ import annotations

import time
import traceback
from functools import partial
from typing import Any, Callable, Mapping

import numpy as np

from repro.engine.mp import (
    WORKER_ERRORS,
    Field,
    MpEngine,
    WorkerView,
    _fmt_bytes,
)
from repro.engine.problem import DecomposedProblem, EdgePack
from repro.engine.base import EngineResult
from repro.engine.shm import ShmArena
from repro.errors import CommunicationError, SolverError
from repro.io.logging_utils import StageTimer, get_logger

#: Grant-word slots (float64): epoch counter, eigenvalue, normalisation,
#: stop mode. The parent writes the payload slots first and the epoch
#: last; workers read the payload only after observing the epoch.
_EPOCH, _KEFF, _PNORM, _STOP = 0, 1, 2, 3

#: Stop modes carried in the grant word.
RUN, FINAL, HALT = 0, 1, 2

#: Poll backoff for mailbox/grant waits: start near-spinning, back off
#: exponentially to 1 ms so oversubscribed boxes (more workers than
#: cores) don't starve the producers they are waiting on.
_POLL_MIN, _POLL_MAX = 1e-5, 1e-3


def _wait_value(array: Field, index: int, threshold: int, timeout: float,
                desc: str) -> bool:
    """Poll ``array[index] >= threshold``; True if it blocked at all."""
    if array[index] >= threshold:
        return False
    deadline = time.monotonic() + timeout
    delay = _POLL_MIN
    while array[index] < threshold:
        if time.monotonic() > deadline:
            raise CommunicationError(
                f"timed out after {timeout}s waiting for {desc}"
            )
        # Seqlock spin-wait: the counter lives in lock-free shared memory
        # with no waitable primitive attached (an OS condition here would
        # reintroduce the cross-process locking the mailbox design
        # removes), so a bounded exponential backoff is the wait.
        time.sleep(delay)  # repro: ignore[blocking-sleep]
        delay = min(delay * 2.0, _POLL_MAX)
    return True


def _async_worker_loop(problem: DecomposedProblem, pack: EdgePack, wid: int,
                       owned: list[int], fields: Mapping[str, Field],
                       wait: Callable[[Field, int, int, float, str], bool],
                       queue: Any, timeout: float,
                       view: WorkerView) -> None:
    """Worker body: grant-gated sweeps with per-edge mailbox waits.

    Local iteration ``t`` consumes grant ``t+1``, normalises the previous
    sweep (publishing ``fission_seq``), then per owned domain waits for
    that domain's in-edges to reach epoch ``t``, unpacks them from the
    ``(t-1) % 2`` halo parity, sweeps, packs its out-edges into parity
    ``t % 2`` and publishes their counters, and finally publishes its own
    ``worker_seq``. The stop mode is checked *before* the normalise
    (``HALT``: a speculative iteration whose results must not clobber the
    converged flux) and after it (``FINAL``: normalise-only last grant).

    As in :func:`repro.engine.mp._worker_loop`, ``view`` (the engine's
    ``_worker_view``) decides what the loop subscripts and which ``wait``
    (:func:`_wait_value` as shipped) it blocks in.
    """
    timer = StageTimer()
    cmfd = problem.cmfd
    stalls = 0
    overlapped = 0
    try:
        fields, wait, report = view(fields, wait)
        halo = fields["halo"]
        phi, phi_new = fields["phi"], fields["phi_new"]
        fission, prod = fields["fission"], fields["prod"]
        edge_seq, grant = fields["edge_seq"], fields["grant"]
        worker_seq, fission_seq = fields["worker_seq"], fields["fission_seq"]
        currents, factors = fields.get("currents"), fields.get("factors")
        t = 0
        while True:
            with timer.stage("worker_grant_wait"):
                wait(grant, _EPOCH, t + 1, timeout, f"grant {t + 1}")
            mode = int(grant[_STOP])
            keff = float(grant[_KEFF])
            pnorm = float(grant[_PNORM])
            if mode == HALT:
                break
            if t > 0:
                with timer.stage("worker_normalize"):
                    for d in owned:
                        rows = problem.rows(d)
                        block = phi_new[rows] / pnorm
                        if cmfd is not None:
                            # CMFD prolongation: same divide-then-multiply
                            # element order as the inproc reference, so the
                            # flux stays bitwise equal with acceleration on.
                            block *= factors[problem.block(d, cmfd.cellmap)]
                        phi[rows] = block
                        fission[rows] = problem.fission_source(d, block)
                fission_seq[wid] = t
            if mode == FINAL:
                break
            iteration_stalled = False
            for d in owned:
                rows = problem.rows(d)
                if t > 0:
                    for e in pack.in_edges(d):
                        if edge_seq[e] < t:
                            with timer.stage("worker_halo_wait"):
                                wait(
                                    edge_seq, e, t, timeout,
                                    f"edge {pack.edge_pairs[e]} epoch {t}",
                                )
                            stalls += 1
                            iteration_stalled = True
                        with timer.stage("worker_exchange"):
                            tracks, dirs = pack.edge_target(e)
                            problem.sweeper(d).psi_in[tracks, dirs] = halo[
                                pack.edge_slots(e, (t - 1) % 2)
                            ]
                    if cmfd is not None:
                        # Rescale the stored boundary flux by the grant's
                        # prolongation factors (published before grant t+1,
                        # i.e. the factors of iteration t-1) — after the
                        # in-edge unpack so received slots are scaled too,
                        # matching inproc's end-of-iteration rescale.
                        with timer.stage("worker_exchange"):
                            sweeper = problem.sweeper(d)
                            sweeper.current_tally.scale_boundary_flux(
                                sweeper.psi_in, factors
                            )
                with timer.stage("worker_sweep"):
                    phi_new[rows] = problem.sweep_domain(d, phi[rows], keff)
                    if cmfd is not None:
                        # Publish before worker_seq: the parent reads the
                        # coarse tallies only after every worker_seq >= t+1,
                        # and grants t+2 only after the coarse solve, so
                        # the single buffer is never overwritten early.
                        cmfd.domain_rows(currents, d)[:] = problem.sweeper(
                            d
                        ).current_tally.take()
                    for e in pack.out_edges(d):
                        tracks, dirs = pack.edge_source(e)
                        halo[pack.edge_slots(e, t % 2)] = problem.sweeper(
                            d
                        ).psi_out_last[tracks, dirs]
                        edge_seq[e] = t + 1  # publish after the payload
            with timer.stage("worker_sweep"):
                for d in owned:
                    prod[d] = problem.production(d, phi_new[problem.rows(d)])
            if t > 0 and not iteration_stalled:
                overlapped += 1
            worker_seq[wid] = t + 1
            t += 1
        report["commx"] = {
            "halo_wait_ns": int(round(timer.duration("worker_halo_wait") * 1e9)),
            "neighbor_stalls": stalls,
            "epochs_overlapped": overlapped,
        }
        report["timers"] = timer.as_dict()
        queue.put(("done", wid, report))
    except WORKER_ERRORS as exc:
        get_logger("repro.engine.async_mp").error(
            "async worker %d failed: %s", wid, exc
        )
        queue.put(("error", wid, traceback.format_exc()))
        raise SystemExit(1)


class AsyncMpEngine(MpEngine):
    """Mailbox/epoch multiprocess engine (dependency-driven halo exchange).

    Inherits the worker-pool mechanics of :class:`MpEngine` (fork checks,
    worker resolution, payload collection, failure surfacing, the
    subclass hooks) and replaces the barrier-phased ``solve`` with the
    grant/harvest protocol described in the module docstring.
    """

    name = "mp-async"

    def _result_extras(
        self, payloads: dict[str, dict[int, Any]], num_workers: int
    ) -> dict[str, Any]:
        totals = {"halo_wait_ns": 0, "neighbor_stalls": 0, "epochs_overlapped": 0}
        for counters in payloads.get("commx", {}).values():
            for name in totals:
                totals[name] += int(counters[name])
        return {"comm_counters": totals}

    def _parent_wait_all(self, array, threshold: int, queue, procs,
                         desc: str) -> None:
        """Poll ``all(array >= threshold)``; a dead worker fails fast."""
        if np.all(array >= threshold):
            return
        deadline = time.monotonic() + self.timeout
        delay = _POLL_MIN
        while not np.all(array >= threshold):
            if time.monotonic() > deadline:
                raise SolverError(
                    f"{self.name} engine timed out after {self.timeout}s "
                    f"waiting for {desc}"
                )
            if any((not p.is_alive()) and p.exitcode for p in procs):
                self._raise_worker_failure(queue, procs)
            # Same seqlock spin as _wait_value: worker_seq/fission_seq are
            # bare shm counters published without any waitable primitive.
            time.sleep(delay)  # repro: ignore[blocking-sleep]
            delay = min(delay * 2.0, _POLL_MAX)

    def solve(self, problem: DecomposedProblem, comm) -> EngineResult:
        ctx = self._fork_context()
        timer = StageTimer()
        D = problem.num_domains
        W = self.resolve_workers(D)
        self._prepare_solve(problem, W)
        pack = EdgePack(problem)
        slot = pack.slot_shape if pack.num_routes else problem.slot_shape
        cmfd = problem.cmfd
        shapes = {
            "phi": (problem.num_fsrs_total, problem.num_groups),
            "phi_new": (problem.num_fsrs_total, problem.num_groups),
            "halo": (2 * pack.num_slots,) + tuple(slot),
            "fission": (problem.num_fsrs_total,),
            "prod": (D,),
            "edge_seq": (max(pack.num_edges, 1),),
            "worker_seq": (W,),
            "fission_seq": (W,),
            "grant": (4,),
        }
        if cmfd is not None:
            shapes["currents"] = (max(cmfd.total_pair_rows, 1), problem.num_groups)
            shapes["factors"] = (cmfd.num_cells, problem.num_groups)
        arena = ShmArena(shapes)
        phi, phi_new = arena["phi"], arena["phi_new"]
        fission, prod = arena["fission"], arena["prod"]
        worker_seq, fission_seq = arena["worker_seq"], arena["fission_seq"]
        grant = arena["grant"]
        currents = arena["currents"] if cmfd is not None else None
        factors = arena["factors"] if cmfd is not None else None
        fields = {name: arena[name] for name in shapes}
        queue = ctx.Queue()
        owned = [[d for d in range(D) if d % W == w] for w in range(W)]
        procs = [
            ctx.Process(
                target=_async_worker_loop,
                args=(problem, pack, w, owned[w], fields, _wait_value, queue,
                      self.timeout, partial(self._worker_view, W, w)),
                daemon=True,
                name=f"repro-{self.name}-worker-{w}",
            )
            for w in range(W)
        ]

        def issue(epoch: int, keff: float, pnorm: float, mode: int) -> None:
            # Seqlock publish: payload slots first, epoch counter last.
            grant[_KEFF] = keff
            grant[_PNORM] = pnorm
            grant[_STOP] = float(mode)
            grant[_EPOCH] = float(epoch)

        def current_rows():
            return [cmfd.domain_rows(currents, d) for d in range(D)]

        def publish(flux, mult):
            # The parent never touches the flux: workers apply the factors
            # (and the grant's k) in the normalize phase the grant releases.
            factors[:] = mult

        self._logger.info(
            "%s engine: %d domains over %d workers, %d edges (%s shared)",
            self.name, D, W, pack.num_edges, _fmt_bytes(arena.nbytes),
        )
        try:
            with timer.stage("engine_solve"):
                for proc in procs:
                    proc.start()
                phi.fill(1.0)
                # The grant/harvest schedule is this engine's own; its
                # steps are the shared power iteration's.
                power = problem.power_iteration(comm, timer, current_rows, publish)
                power.start([phi])
                monitor = power.monitors[0]
                issue(1, power.keff[0], 1.0, RUN)
                for t in range(problem.max_iterations):
                    self._parent_wait_all(
                        worker_seq, t + 1, queue, procs,
                        f"sweeps of iteration {t}",
                    )
                    new_production = comm.allreduce(
                        [float(prod[d]) for d in range(D)]
                    )
                    pack.account_iteration(comm.stats)
                    power.advance(0, new_production)
                    if cmfd is not None:
                        # Parent-side work between the harvest and the
                        # next grant.
                        power.accelerate(0, phi_new, phi, new_production)
                    last = t + 1 >= problem.max_iterations
                    issue(t + 2, power.keff[0], new_production, FINAL if last else RUN)
                    self._parent_wait_all(
                        fission_seq, t + 1, queue, procs,
                        f"fission tally of iteration {t}",
                    )
                    monitor.update(power.keff[0], fission.copy())
                    if last:
                        break
                    if monitor.converged:
                        # Workers are one speculative sweep ahead; let it
                        # finish and discard it at the next grant wait.
                        issue(t + 3, power.keff[0], new_production, HALT)
                        break
                solved = power.results([phi])[0]
                payloads = self._collect_payloads(queue, procs, W)
            return self._pool_result(solved, comm, timer, payloads, W)
        finally:
            # Unblock any surviving worker: a HALT grant far in the future
            # satisfies every pending grant wait and stops the loop.
            issue(int(grant[_EPOCH]) + problem.max_iterations + 2,
                  float(grant[_KEFF]), float(grant[_PNORM]), HALT)
            for proc in procs:
                proc.join(timeout=5.0)
            for proc in procs:
                if proc.is_alive():  # pragma: no cover - crash cleanup
                    proc.terminate()
                    proc.join(timeout=5.0)
            del phi, phi_new, fission, prod, worker_seq, fission_seq, grant
            del currents, factors, fields
            arena.close(unlink=True)
