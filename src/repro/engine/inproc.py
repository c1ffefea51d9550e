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
        """Route every interface slot's outgoing flux via the communicator."""
        for route in problem.routes:
            comm.send(
                route.src_domain,
                route.dst_domain,
                problem.sweeper(route.src_domain)
                .psi_out_last[route.src_track, route.src_dir].copy(),
                tag=(route.dst_track, route.dst_dir),
            )
        comm.deliver()
        for route in problem.routes:
            flux = comm.recv(
                route.dst_domain, route.src_domain, tag=(route.dst_track, route.dst_dir)
            )
            problem.sweeper(route.dst_domain).set_interface_flux(
                route.dst_track, route.dst_dir, flux
            )

    def solve(self, problem: DecomposedProblem, comm: SimComm) -> EngineResult:
        timer = StageTimer()
        cmfd = problem.cmfd
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
            flux *= factors[cmfd.cellmap]
            for d in ranks:
                sweeper = problem.sweeper(d)
                sweeper.current_tally.scale_boundary_flux(sweeper.psi_in, factors)

        with timer.stage("engine_solve"):
            solved = problem.power_iteration(
                comm, timer, current_rows, prolong, sweep
            ).run([phi])[0]
        return self._result(solved, comm, timer)
