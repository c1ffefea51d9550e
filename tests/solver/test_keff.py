"""Tests for the power-iteration driver (with a mock sweep)."""

import multiprocessing

import numpy as np
import pytest

from repro.constants import FOUR_PI
from repro.errors import SolverError
from repro.solver import KeffSolver, SourceTerms

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="mp engines require the fork start method",
)

#: Every solve path that runs the shared power iteration -> its state count.
SOLVE_PATHS = [
    pytest.param("2d", 1, id="2d"),
    pytest.param("3d-exp", 1, id="3d-exp"),
    pytest.param("inproc", 1, id="inproc-2x1"),
    pytest.param("mp", 1, id="mp", marks=needs_fork),
    pytest.param("mp-async", 1, id="mp-async", marks=needs_fork),
    pytest.param("batch", 2, id="batch-2"),
]


def build_path(path, material, geometry_3d, **limits):
    """A zero-argument solve over ``path`` on a tiny homogeneous problem."""
    from repro.geometry import Geometry, Lattice
    from repro.geometry.universe import make_homogeneous_universe
    from repro.parallel.driver import DecomposedSolver
    from repro.scenario import BatchedKeffSolver, BatchedSweep2D
    from repro.solver import MOCSolver
    from repro.tracks import TrackGenerator

    u = make_homogeneous_universe(material)
    tracking = dict(num_azim=4, azim_spacing=0.5, num_polar=2)
    if path == "2d":
        return MOCSolver.for_2d(Geometry(Lattice([[u]], 1.5, 1.5)), **tracking, **limits).solve
    if path == "3d-exp":
        return MOCSolver.for_3d(
            geometry_3d, num_azim=4, azim_spacing=0.8, polar_spacing=0.8,
            num_polar=2, storage="EXP", **limits,
        ).solve
    if path == "batch":
        trackgen = TrackGenerator(Geometry(Lattice([[u]], 1.5, 1.5)), **tracking).generate()
        sweeper = BatchedSweep2D(trackgen, [SourceTerms([material]), SourceTerms([material])])
        return BatchedKeffSolver(sweeper, trackgen.fsr_volumes, **limits).solve
    return DecomposedSolver(
        Geometry(Lattice([[u, u]], 1.5, 1.5)), 2, 1, **tracking, engine=path, **limits
    ).solve


@pytest.fixture()
def terms(two_group_fissile):
    return SourceTerms([two_group_fissile, two_group_fissile])


def infinite_medium_sweep(terms):
    """A mock sweep that exactly reproduces the infinite-medium balance.

    In an infinite homogeneous medium phi = Q / sigma_t (per 4pi), which
    corresponds to a sweep whose finalize yields phi = 4 pi q with zero
    delta-psi tally.
    """

    def sweep(reduced):
        return np.zeros_like(reduced)

    def finalize(tally, reduced, volumes):
        return FOUR_PI * reduced + tally

    return sweep, finalize


class TestPowerIteration:
    def test_recovers_analytic_k_inf(self, terms, two_group_fissile):
        from repro.materials import infinite_medium_keff

        sweep, finalize = infinite_medium_sweep(terms)
        solver = KeffSolver(
            terms, np.ones(2), sweep, finalize,
            keff_tolerance=1e-10, source_tolerance=1e-9, max_iterations=2000,
        )
        result = solver.solve()
        assert result.converged
        assert result.keff == pytest.approx(
            infinite_medium_keff(two_group_fissile), rel=1e-7
        )

    def test_flux_normalised_to_unit_production(self, terms):
        sweep, finalize = infinite_medium_sweep(terms)
        solver = KeffSolver(terms, np.ones(2), sweep, finalize, max_iterations=500)
        result = solver.solve()
        production = terms.fission_production(result.scalar_flux, np.ones(2))
        assert production == pytest.approx(1.0, rel=1e-9)

    def test_initial_flux_accepted(self, terms):
        sweep, finalize = infinite_medium_sweep(terms)
        solver = KeffSolver(terms, np.ones(2), sweep, finalize, max_iterations=500)
        seeded = solver.solve(initial_flux=np.full((2, 2), 3.0))
        default = solver.solve()
        assert seeded.keff == pytest.approx(default.keff, rel=1e-6)

    def test_max_iterations_respected(self, terms):
        calls = []

        def sweep(reduced):
            calls.append(1)
            return np.zeros_like(reduced)

        def finalize(tally, reduced, volumes):
            # oscillating flux never converges
            return FOUR_PI * reduced * (1.0 + 0.5 * (-1) ** len(calls))

        solver = KeffSolver(terms, np.ones(2), sweep, finalize, max_iterations=7)
        result = solver.solve()
        assert not result.converged
        assert len(calls) == 7

    @staticmethod
    def _solve_captured(solver, caplog):
        """Run a solve (a solver, or a bare ``solve`` callable) with
        caplog's handler attached to the library logger (it does not
        propagate to root, so ``at_level`` alone sees nothing)."""
        import logging

        logger = logging.getLogger("repro.solver")
        logger.addHandler(caplog.handler)
        try:
            with caplog.at_level("WARNING", logger="repro.solver"):
                return getattr(solver, "solve", solver)()
        finally:
            logger.removeHandler(caplog.handler)

    def test_exhaustion_logs_structured_warning(self, terms, caplog):
        """Stopping at max_iterations must warn with the residuals and the
        tolerances, so an unconverged k never passes silently."""
        calls = []

        def sweep(reduced):
            calls.append(1)
            return np.zeros_like(reduced)

        def finalize(tally, reduced, volumes):
            return FOUR_PI * reduced * (1.0 + 0.5 * (-1) ** len(calls))

        solver = KeffSolver(terms, np.ones(2), sweep, finalize, max_iterations=5)
        result = self._solve_captured(solver, caplog)
        assert not result.converged
        messages = [r.getMessage() for r in caplog.records]
        warning = next(m for m in messages if "unconverged" in m)
        assert "5 iterations" in warning
        assert "max_iterations=5" in warning
        assert "keff_change=" in warning
        assert "source_residual=" in warning

    @pytest.mark.parametrize("path, num_states", SOLVE_PATHS)
    def test_exhaustion_warns_once_on_every_path(
        self, path, num_states, two_group_fissile, small_geometry_3d, caplog
    ):
        """The same structured WARNING, once per solve (once per state in
        a batch, naming the state), whichever caller ran the loop."""
        solve = build_path(
            path, two_group_fissile, small_geometry_3d,
            keff_tolerance=1e-14, source_tolerance=1e-14, max_iterations=3,
        )
        result = self._solve_captured(solve, caplog)
        results = result if isinstance(result, list) else [result]
        assert len(results) == num_states
        assert not any(r.converged for r in results)
        warnings = [
            r.getMessage() for r in caplog.records if "unconverged" in r.getMessage()
        ]
        assert len(warnings) == num_states
        for state, warning in enumerate(warnings):
            assert "3 iterations" in warning
            assert "max_iterations=3" in warning
            assert "keff_change=" in warning and "(tol 1.0e-14)" in warning
            assert "source_residual=" in warning
            assert (f"state {state}" in warning) == (num_states > 1)

    @pytest.mark.parametrize("path, num_states", SOLVE_PATHS)
    def test_converged_paths_stay_silent(
        self, path, num_states, two_group_fissile, small_geometry_3d, caplog
    ):
        solve = build_path(
            path, two_group_fissile, small_geometry_3d,
            keff_tolerance=1e-4, source_tolerance=1e-3, max_iterations=300,
        )
        result = self._solve_captured(solve, caplog)
        results = result if isinstance(result, list) else [result]
        assert all(r.converged for r in results)
        assert not [r for r in caplog.records if "unconverged" in r.getMessage()]

    def test_converged_solve_does_not_warn(self, terms, caplog):
        sweep, finalize = infinite_medium_sweep(terms)
        solver = KeffSolver(terms, np.ones(2), sweep, finalize, max_iterations=500)
        result = self._solve_captured(solver, caplog)
        assert result.converged
        assert not [r for r in caplog.records if "unconverged" in r.getMessage()]

    def test_volume_shape_checked(self, terms):
        sweep, finalize = infinite_medium_sweep(terms)
        with pytest.raises(SolverError, match="volumes"):
            KeffSolver(terms, np.ones(3), sweep, finalize)

    def test_non_fissile_rejected(self, two_group_absorber):
        terms = SourceTerms([two_group_absorber])
        with pytest.raises(SolverError, match="fissile"):
            KeffSolver(terms, np.ones(1), lambda q: q, lambda t, q, v: q)

    def test_fission_rates_helper(self, terms):
        sweep, finalize = infinite_medium_sweep(terms)
        solver = KeffSolver(terms, np.ones(2), sweep, finalize, max_iterations=200)
        result = solver.solve()
        rates = result.fission_rates(terms, np.ones(2))
        assert rates.shape == (2,)
        assert (rates > 0).all()
