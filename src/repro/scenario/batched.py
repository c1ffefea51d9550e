"""Scenario-axis batched 2D sweep and its multi-state eigenvalue solve.

One wider vectorized kernel sweeps all states of a batch at once: the
numpy backend's position-major lockstep loop gains a state axis ``S``
directly after the segment axis, so the working flux is ``(n, S, P, G)``
and every elementwise update is the single-state expression broadcast
over states. Bitwise equality per state is a structural property:

* elementwise ops (attenuation, source subtraction) act per element, so
  each state's slice sees exactly the single-state arithmetic, in the
  same order, on the same values;
* reductions (the polar-weight einsum, the per-FSR bincount, the CMFD
  current folds) are *looped per state* on that state's slice using the
  exact single-state expressions — never summed across the state axis.

The direction loop, its buffers and the reduce are the single-state numpy
kernel's (:func:`~repro.solver.backends.numpy_backend.sweep_directions`
over a :class:`~repro.solver.backends.numpy_backend.SweepWorkspace`), and
the boundary exchange and finalisation are every sweep's
(:class:`~repro.solver.sweep.TransportSweep`).

States may converge at different iterations: a converged state freezes
(the shared loop stops touching it and its last reduced source is
recycled so the widened kernel keeps a valid input) while the remaining
states sweep on. CMFD acceleration reuses :class:`~repro.solver.cmfd.CmfdAccelerator`
unchanged through a per-state sweeper view; each state owns its
:class:`~repro.solver.cmfd.CurrentTally` (values) while all states share
the tally *layout* and one widened in-kernel capture.
"""

from __future__ import annotations

import time

import numpy as np

from repro.errors import ScenarioError, SolverError
from repro.io.logging_utils import get_logger
from repro.solver.backends.numpy_backend import sweep_directions
from repro.solver.backends.plan import MAX_EXPF_ELEMENTS
from repro.solver.keff import with_kernel_phases
from repro.solver.power import SolveResult, solve_local
from repro.solver.solver import Workload
from repro.solver.source import SourceTerms
from repro.solver.sweep import TransportSweep, scalar_flux


class _StateView:
    """One state's single-state facade over a :class:`BatchedSweep2D` —
    exactly the attribute surface :class:`~repro.solver.cmfd.CmfdAccelerator`
    touches (``current_tally`` and ``psi_in``), resolved freshly on every
    access because the batched ``psi_in`` is replaced each sweep."""

    def __init__(self, batched: "BatchedSweep2D", state: int) -> None:
        self._batched = batched
        self._state = state

    @property
    def current_tally(self):
        tallies = self._batched.tallies
        return None if tallies is None else tallies[self._state]

    @property
    def psi_in(self) -> np.ndarray:
        return self._batched.psi_in[:, :, self._state]


class BatchedSweep2D(TransportSweep):
    """One-geometry 2D sweep over shared tracks for ``S`` XS states."""

    def __init__(
        self,
        trackgen,
        terms_per_state: list[SourceTerms],
    ) -> None:
        if not terms_per_state:
            raise ScenarioError("batched sweep needs at least one state")
        super().__init__(trackgen)
        self.terms = terms_per_state
        self.plan = trackgen.sweep_plan()
        self.num_states = len(terms_per_state)
        self.num_polar = trackgen.polar.num_polar_half
        self.num_groups = terms_per_state[0].num_groups
        num_fsrs = terms_per_state[0].num_regions
        for terms in terms_per_state:
            if terms.num_regions != num_fsrs or terms.num_groups != self.num_groups:
                raise ScenarioError(
                    "all scenario states must share the FSR/group layout"
                )
        self.num_fsrs = num_fsrs
        self._bind_boundary(
            self.plan.topology, (self.num_states, self.num_polar, self.num_groups)
        )
        #: Per-state CMFD current tallies (None until :meth:`enable_cmfd_tally`).
        self.tallies: list | None = None
        self._capture = None
        self._table = self._build_expf_table()

    # ------------------------------------------------------------- setup

    def _build_expf_table(self):
        """The ``(n_seg, S, P, G)`` exponential table: each state's
        slice is filled by the plan's single-state blockwise build
        (bitwise-equal slices), or ``None`` when the widened table would be
        too large — the kernel then evaluates per position, per state."""
        plan = self.plan
        if self.num_states * plan.expf_elements(self.num_groups) > MAX_EXPF_ELEMENTS:
            get_logger("repro.scenario").info(
                "batched expf table for %d states exceeds the element cap; "
                "falling back to per-position evaluation", self.num_states,
            )
            return None
        table = np.empty((plan.num_segments, self.num_states, self.num_polar, self.num_groups))
        for s, terms in enumerate(self.terms):
            plan.fill_pos_expf(table[:, s], terms.sigma_t_safe, self.evaluator)
        return table

    def _expf_at(self, lo: int, hi: int) -> np.ndarray:
        block = self.plan.pos_expf_block
        return np.stack([block(t.sigma_t_safe, self.evaluator, lo, hi) for t in self.terms], axis=1)

    def enable_cmfd_tally(self, cell_of_fsr: np.ndarray) -> None:
        """Attach per-state current tallies plus one widened in-kernel
        capture. The tally layout is XS-independent, so every state's
        tally is structurally identical; the kernel writes crossings into
        the widened buffers and the per-state folds copy slices out."""
        from repro.solver.cmfd import CurrentTally, local_exit_destinations

        exit_dst = local_exit_destinations(self.plan, cell_of_fsr)
        self.tallies = [
            CurrentTally(self.plan, cell_of_fsr, exit_dst, self.num_groups)
            for _ in range(self.num_states)
        ]
        base = self.tallies[0].capture
        out = [
            np.zeros((base.out[d].shape[0], self.num_states, self.num_polar, self.num_groups))
            for d in (0, 1)
        ]
        self._capture = base.with_out(out)

    def state_view(self, state: int) -> _StateView:
        return _StateView(self, state)

    # ------------------------------------------------------------- sweep

    def sweep(self, reduced_stack: np.ndarray) -> list[np.ndarray]:
        """One widened transport sweep over all states.

        ``reduced_stack`` is ``(S, R, G)``; returns one ``(R, G)``
        delta-psi tally per state, each bitwise-equal to the single-state
        numpy kernel's tally for that state's cross sections.
        """
        plan = self.plan
        psi = self._entry_flux()
        work = self.workspace.bind(plan, psi[0].shape[1:])
        start = time.perf_counter()
        # The hoisted source lookup wants the FSR axis first: (R, S, G).
        source = np.ascontiguousarray(reduced_stack.transpose(1, 0, 2))
        # Reduced per state with the single-state expression, so every
        # state's tally is bitwise the single-state kernel's.
        tallies, marks = sweep_directions(
            work, plan, psi, source, self._table, self._expf_at, self._capture,
            self.num_fsrs, states=range(self.num_states),
        )
        self._after_kernel(psi, start, marks)
        return tallies

    def _fold(self, psi: list[np.ndarray]) -> bool:
        """Each state's slice of the widened capture and exit flux into
        that state's current tally."""
        if self.tallies is None:
            return False
        assert self._capture is not None
        for s, tally in enumerate(self.tallies):
            for d in (0, 1):
                tally.capture.out[d][...] = self._capture.out[d][:, s]
            tally.accumulate([np.ascontiguousarray(p[:, s]) for p in psi])
        return True

    def finalize_state(
        self,
        state: int,
        tally: np.ndarray,
        reduced_source: np.ndarray,
        volumes: np.ndarray,
    ) -> np.ndarray:
        """Single-state scalar-flux finalisation against this state's
        cross sections (:func:`~repro.solver.sweep.scalar_flux`)."""
        return scalar_flux(tally, reduced_source, self.terms[state].sigma_t_safe, volumes)


class BatchedKeffSolver:
    """All states of one batch through :mod:`repro.solver.power` at once:
    ``S`` states, one domain, with the transport sweep amortised across
    states through :class:`BatchedSweep2D`.
    """

    def __init__(
        self,
        sweeper: BatchedSweep2D,
        volumes: np.ndarray,
        keff_tolerance: float,
        source_tolerance: float,
        max_iterations: int = 500,
        accelerators: list | None = None,
    ) -> None:
        self.sweeper = sweeper
        self.terms = sweeper.terms
        self.volumes = np.asarray(volumes, dtype=np.float64)
        self.keff_tolerance = keff_tolerance
        self.source_tolerance = source_tolerance
        self.max_iterations = int(max_iterations)
        self.accelerators = accelerators or [None] * sweeper.num_states
        if len(self.accelerators) != sweeper.num_states:
            raise ScenarioError("one accelerator slot per state required")
        for s, terms in enumerate(self.terms):
            if not np.any(terms.nu_sigma_f > 0.0):
                raise SolverError(
                    f"no fissile region present in state {s}; k-eigenvalue undefined"
                )

    @property
    def workload(self) -> Workload:
        """Every state's workload terms: one domain over the shared laydown."""
        trackgen = self.sweeper.trackgen
        return Workload(
            self.sweeper.num_fsrs, 1, trackgen.num_tracks, trackgen.num_segments
        )

    def solve(self) -> list[SolveResult]:
        """Iterate until every state converges (or max iterations)."""
        sweeper = self.sweeper
        results = solve_local(
            self.terms,
            self.volumes,
            lambda reduced: sweeper.sweep(np.stack(reduced, axis=0)),
            lambda state, tally, reduced: sweeper.finalize_state(
                state, tally, reduced, self.volumes
            ),
            self.accelerators,
            [np.ones((t.num_regions, t.num_groups)) for t in self.terms],
            self,
        )
        kernel = sweeper.timings.kernel_phases()
        for result in results:
            result.phase_seconds = with_kernel_phases(result.phase_seconds, kernel)
        return results
