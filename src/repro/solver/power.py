"""The power iteration: the one eigenvalue loop every solve path runs.

The paper's stage-4 cycle (Sec. 2.1) — sweep, global production reduce,
k update, normalise, accelerate, residual check — over a state axis
``S >= 1``. A single solve is a batch of one state; a single-domain solve
is a decomposed solve over one domain. Callers differ only in the four
:class:`Transport` hooks they plug in; everything else (unit-production
normalisation, the active/frozen bookkeeping of a batch, CMFD statistics,
the unconverged WARNING, result assembly) is written here once.

:meth:`PowerIteration.run` is the synchronous schedule. The ``mp-async``
engine keeps its own grant/harvest schedule (convergence is checked one
grant behind the workers, which normalise their own flux blocks) and
composes it from the same steps: :meth:`~PowerIteration.start`,
:meth:`~PowerIteration.advance`, :meth:`~PowerIteration.accelerate` and
:meth:`~PowerIteration.results`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import SolverError
from repro.io.logging_utils import StageTimer, get_logger
from repro.solver.cmfd import CmfdStats, CmfdStep
from repro.solver.convergence import ConvergenceMonitor
from repro.solver.source import SourceTerms

#: Timer rows of a single-process sweep, in the order reports print them.
PHASES = ("source", "sweep", "finalize")


@dataclass
class SolveResult:
    """Outcome of a k-eigenvalue solve (one state)."""

    keff: float
    scalar_flux: np.ndarray
    converged: bool
    num_iterations: int
    monitor: ConvergenceMonitor
    solve_seconds: float
    #: Wall-time attribution per solver phase: ``source`` (reduced-source
    #: update), ``sweep`` (transport kernel + storage strategy) and
    #: ``finalize`` (tally -> scalar flux); batch-wide in a batch, zero in
    #: a decomposed solve (workers time their own sweeps). Sweep-internal
    #: setup/kernel split lives in the sweeper's own ``timings``.
    phase_seconds: dict = field(default_factory=dict)
    #: Accelerator bookkeeping (``cmfd_solves``/``cmfd_iterations``/
    #: ``cmfd_skips``/``cmfd_limited``/``cmfd_unpinned``/``cmfd_seconds``);
    #: empty when no accelerator ran.
    cmfd_stats: dict = field(default_factory=dict)

    def fission_rates(self, terms: SourceTerms, volumes: np.ndarray) -> np.ndarray:
        """Per-FSR fission rates of the converged flux (Fig. 7 output)."""
        return terms.fission_rate(self.scalar_flux, volumes)


@dataclass
class Transport:
    """What differs between the callers of the power iteration.

    Fluxes and eigenvalues are per-state lists. ``sweep(phi, keff,
    active)`` runs one transport sweep from the normalised fluxes and
    returns the raw swept flux per state (entries of states outside
    ``active`` are ignored); it owns whatever moves boundary flux between
    domains (``None`` when the caller runs its own schedule over the
    steps below). ``production(state, flux)`` is the total fission production,
    reduced in rank order (with the communicator's accounting).
    ``fission_source(state, phi)`` gathers the per-FSR fission emission
    density the convergence monitor watches. ``accelerate(state, swept,
    phi, production, keff)``, when present, runs the coarse solve from the
    raw swept flux, prolongs onto ``phi`` and the stored boundary flux,
    and returns the eigenvalue to continue with plus the solve's
    :class:`~repro.solver.cmfd.CmfdStep`.
    """

    sweep: Callable[[list, list, Sequence[int]], list] | None
    production: Callable[[int, np.ndarray], float]
    fission_source: Callable[[int, np.ndarray], np.ndarray]
    accelerate: Callable[..., tuple[float, CmfdStep]] | None = None
    num_states: int = 1


class PowerIteration:
    """Eigenvalue, monitor and accelerator statistics of every state, and
    the steps that advance them. ``limits`` is the solver (or problem)
    whose ``keff_tolerance``, ``source_tolerance`` and ``max_iterations``
    apply; ``timer`` receives the ``cmfd_stage`` row (an engine passes its
    own timer, so its timings stay in one place)."""

    def __init__(
        self, transport: Transport, limits, timer: StageTimer, cmfd_stage: str = "cmfd"
    ) -> None:
        self.transport = transport
        self.max_iterations = int(limits.max_iterations)
        self.timer = timer
        self.cmfd_stage = cmfd_stage
        states = range(transport.num_states)
        self.keff = [1.0 for _ in states]
        self.monitors = [
            ConvergenceMonitor(
                keff_tolerance=limits.keff_tolerance,
                source_tolerance=limits.source_tolerance,
            )
            for _ in states
        ]
        self.cmfd_stats = [CmfdStats() for _ in states]
        self._started = time.perf_counter()

    def start(self, phi: list[np.ndarray]) -> None:
        """Normalise every state's initial flux to unit production, in place."""
        for state, flux in enumerate(phi):
            production = self.transport.production(state, flux)
            if production <= 0.0:
                raise SolverError("initial flux produces no fission neutrons")
            flux /= production

    def advance(self, state: int, production: float) -> None:
        """The k update. The previous flux was normalised to unit
        production, so the production of the swept flux *is* the
        multiplication ratio."""
        if production <= 0.0:
            raise SolverError("fission production vanished during iteration")
        self.keff[state] = self.keff[state] * production

    def accelerate(
        self, state: int, swept: np.ndarray, phi: np.ndarray, production: float
    ) -> None:
        """One timed, counted accelerator step on ``state``."""
        before = self.timer.duration(self.cmfd_stage)
        with self.timer.stage(self.cmfd_stage):
            self.keff[state], step = self.transport.accelerate(
                state, swept, phi, production, self.keff[state]
            )
        self.cmfd_stats[state].record(
            step, self.timer.duration(self.cmfd_stage) - before
        )

    def run(self, phi: list[np.ndarray]) -> list[SolveResult]:
        """Iterate ``phi`` (one array per state, updated in place — an
        engine's lives in shared memory) until every state converges or
        ``max_iterations``. A converged state freezes: it leaves ``active``
        and nothing touches its flux, eigenvalue or monitor again."""
        transport = self.transport
        self.start(phi)
        active = list(range(transport.num_states))
        for _ in range(self.max_iterations):
            swept = transport.sweep(phi, self.keff, active)
            for state in active:
                production = transport.production(state, swept[state])
                self.advance(state, production)
                np.divide(swept[state], production, out=phi[state])
                if transport.accelerate is not None:
                    self.accelerate(state, swept[state], phi[state], production)
                self.monitors[state].update(
                    self.keff[state], transport.fission_source(state, phi[state])
                )
            active = [s for s in active if not self.monitors[s].converged]
            if not active:
                break
        return self.results(phi)

    def results(self, phi: list[np.ndarray]) -> list[SolveResult]:
        """One result per state; a state that stopped at ``max_iterations``
        is reported once, with its residuals and their tolerances."""
        elapsed = time.perf_counter() - self._started
        phases = {name: self.timer.duration(name) for name in PHASES}
        accelerated = self.transport.accelerate is not None
        results = []
        for state, monitor in enumerate(self.monitors):
            if not monitor.converged:
                last = monitor.history[-1] if monitor.history else None
                get_logger("repro.solver").warning(
                    "k-eigenvalue solve%s stopped unconverged after %d iterations "
                    "(max_iterations=%d): keff_change=%.3e (tol %.1e), "
                    "source_residual=%.3e (tol %.1e)",
                    f" of state {state}" if len(self.monitors) > 1 else "",
                    monitor.num_iterations,
                    self.max_iterations,
                    last.keff_change if last else float("inf"),
                    monitor.keff_tolerance,
                    last.source_residual if last else float("inf"),
                    monitor.source_tolerance,
                )
            results.append(
                SolveResult(
                    keff=self.keff[state],
                    scalar_flux=phi[state].copy(),
                    converged=monitor.converged,
                    num_iterations=monitor.num_iterations,
                    monitor=monitor,
                    solve_seconds=elapsed,
                    phase_seconds=dict(phases),
                    cmfd_stats=self.cmfd_stats[state].as_dict() if accelerated else {},
                )
            )
        return results


def solve_local(
    terms: list[SourceTerms],
    volumes: np.ndarray,
    sweep: Callable[[list[np.ndarray]], list[np.ndarray]],
    finalize: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    accelerators: list,
    phi: list[np.ndarray],
    limits,
) -> list[SolveResult]:
    """The single-process case: ``S`` cross-section states over one track
    laydown, no decomposition. ``sweep`` maps every state's reduced source
    to its delta-psi tally in one call (a widened kernel sweeps them
    together), ``finalize(state, tally, reduced)`` turns one tally into
    scalar flux, and ``accelerators`` holds one
    :class:`~repro.solver.cmfd.CmfdAccelerator` per state or all ``None``.
    ``phi`` is the initial flux per state, ``limits`` as in
    :class:`PowerIteration`.

    Phase seconds are batch-wide: the sweep is shared, so attributing it
    to a state would double-count it.
    """
    timer = StageTimer()
    # A frozen state recycles its last reduced source: the widened kernel
    # needs a valid input for every state, and nothing reads its output.
    reduced: list = [None] * len(terms)

    def sweep_states(flux, keff, active):
        t0 = time.perf_counter()
        for s in active:
            reduced[s] = terms[s].reduced_source(flux[s], keff[s])
        t1 = time.perf_counter()
        tallies = sweep(reduced)
        t2 = time.perf_counter()
        swept: list = [None] * len(terms)
        for s in active:
            swept[s] = finalize(s, tallies[s], reduced[s])
        for phase, spent in zip(PHASES, (t1 - t0, t2 - t1, time.perf_counter() - t2)):
            timer.record(phase, spent)
        return swept

    def accelerate(s, swept, flux, production, keff):
        return accelerators[s].apply(swept, flux, production, keff)

    transport = Transport(
        sweep=sweep_states,
        production=lambda s, flux: terms[s].fission_production(flux, volumes),
        fission_source=lambda s, flux: terms[s].fission_source(flux),
        accelerate=accelerate if accelerators[0] is not None else None,
        num_states=len(terms),
    )
    return PowerIteration(transport, limits, timer).run(phi)
