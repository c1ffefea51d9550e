"""The in-process execution engine: the deterministic simulator.

Runs every subdomain sweep sequentially in the calling process and moves
boundary angular flux through :class:`~repro.parallel.comm.SimComm` — the
equivalence oracle for the real multiprocess engines. One sweep per rank
per iteration, boundary flux updated at iteration boundaries (the paper's
Point-Jacobi scheme, Sec. 2.1); the eigenvalue iteration around them is
:mod:`repro.solver.power`'s.
"""

from __future__ import annotations

import numpy as np

from repro.engine.base import EngineResult, ExecutionEngine
from repro.engine.problem import DecomposedProblem
from repro.io.logging_utils import StageTimer
from repro.parallel.comm import SimComm


class InprocEngine(ExecutionEngine):
    """Single-process reference engine over the simulated communicator."""

    name = "inproc"

    def _exchange(self, problem: DecomposedProblem, comm: SimComm) -> None:
        """Route every interface slot's outgoing flux via the communicator,
        one message per row of the route table: the oracle the vectorised
        halo packs of the process engines are held to."""
        rows = problem.route_columns.tolist()
        for src, src_track, src_dir, dst, dst_track, dst_dir in rows:
            comm.send(
                src, dst,
                problem.sweeper(src).psi_out_last[src_track, src_dir].copy(),
                tag=(dst_track, dst_dir),
            )
        comm.deliver()
        for src, _, _, dst, dst_track, dst_dir in rows:
            flux = comm.recv(dst, src, tag=(dst_track, dst_dir))
            problem.sweeper(dst).set_interface_flux(dst_track, dst_dir, flux)

    def solve(self, problem: DecomposedProblem, comm: SimComm) -> EngineResult:
        timer = StageTimer()
        ranks = range(problem.num_domains)
        phi = np.ones((problem.num_fsrs_total, problem.num_groups))
        swept = np.empty_like(phi)

        def sweep(flux, keff, active):
            for d in ranks:
                problem.block(d, swept)[:] = problem.sweep_domain(
                    d, problem.block(d, flux[0]), keff[0]
                )
            self._exchange(problem, comm)
            return [swept]

        def current_rows():
            return [problem.sweeper(d).current_tally.take() for d in ranks]

        def prolong(flux, factors):
            flux *= factors[problem.mesh.cellmap]
            for d in ranks:
                sweeper = problem.sweeper(d)
                sweeper.current_tally.scale_boundary_flux(sweeper.psi_in, factors)

        with timer.stage("engine_solve"):
            # The start-up step: this process sweeps every domain, so it
            # builds them all; there is no one to wait for.
            volumes = np.empty(problem.num_fsrs_total)
            entries = np.empty(len(problem.route_columns))
            problem.adopt([problem.build(ranks, volumes, entries, lambda: None)], volumes)
            solved = problem.power_iteration(
                comm, timer, current_rows, prolong, sweep
            ).run([phi])[0]
        return self._result(solved, comm, timer)
