"""The coarse solve factorises, runs on one BLAS thread, and counts the
solves that could not.

``CmfdProblem.solve`` finds the coarse eigenpair with one LU solve of the
operator against the emission columns (``R = A^-1 E``) and an inner power
iteration ``y = R s``. The dense-inverse solve it replaced lives on as
``InverseCmfdProblem`` (``tests/solver/cmfd_oracle.py``). Over random
well-posed problems the two agree to 1e-12 relative in ``keff`` and the
factors, with the same inner iterations, skips and limited count; both
skip at once on a singular operator and on zero production. The solve's
BLAS runs on one thread (``repro.runtime.cpus.blas_threads``), so its
bits do not follow the size of the OpenBLAS pool. A solve that found no
pool to size is counted in ``cmfd_unpinned`` and computes the same bits.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.config import CmfdConfig
from repro.runtime import AntMocApplication, cpus
from repro.solver.cmfd import CmfdProblem, CoarseMesh, MeshSpec
from tests.observability.conftest import mini_2d_config
from tests.solver.cmfd_oracle import InverseCmfdProblem
from tests.solver.test_cmfd_oracle import GRIDS, assert_close_step, build_problem

needs_two_threads = pytest.mark.skipif(
    cpus.blas_pool() is None or cpus.blas_pool().value < 2,
    reason="no OpenBLAS thread count of two or more to lower",
)


@st.composite
def well_posed(draw):
    """Coarse problems whose every cell carries flux, with small net
    currents, 1-7 groups and up to 84 unknowns."""
    grid = draw(st.sampled_from(GRIDS))
    bins = grid[0] * grid[1] * grid[2]
    num_pairs = bins * (bins - 1) // 2
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        grid=grid,
        num_groups=draw(st.integers(1, 7)),
        num_fsrs=draw(st.integers(bins, 3 * bins)),
        zero_flux=[False] * bins,
        pair_modes=draw(st.lists(st.integers(0, 3), min_size=num_pairs, max_size=num_pairs)),
        leaks=draw(st.lists(st.booleans(), min_size=bins, max_size=bins)),
        num_domains=draw(st.integers(1, 3)),
        current_exponent=draw(st.integers(-3, -1)),
        options=CmfdConfig(
            tolerance=draw(st.sampled_from([1e-10, 1e-8, 1e-6])),
            max_inner_iterations=300,
            relaxation=draw(st.sampled_from([0.5, 1.0])),
        ),
    )


def shipped_and_inverse(params):
    """The shipped step and the inverse oracle's on one drawn problem."""
    (shipped, _, inverse), phi, rows, keff = build_problem(**params)
    currents = shipped.reduce(rows)
    return shipped.solve(phi, currents, keff), inverse.solve(phi, currents, keff)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(params=well_posed())
def test_factorised_solve_matches_the_inverse(params):
    step, want = shipped_and_inverse(params)
    assert_close_step(step, want)


# ------------------------------------------------------------ skip(0) paths


def two_cell_problem(*, scatter: bool, fission: bool):
    """Two coarse cells of three FSRs each, no faces, two groups: with
    ``scatter`` off the operator is all zeros, hence singular; with
    ``fission`` off nothing is produced."""
    rng = np.random.default_rng(3)
    mesh = CoarseMesh(MeshSpec(0.0, 0.0, 1.0, 1.0, 2, 1), np.array([0, 0, 0, 1, 1, 1]))
    sigma_t = rng.uniform(0.5, 1.0, (6, 2)) * scatter
    sigma_s = np.full((6, 2, 2), 0.1) * scatter
    nu_sigma_f = rng.uniform(0.1, 0.5, (6, 2)) * fission
    chi = np.tile([0.9, 0.1], (6, 1))
    args = (mesh, sigma_t, sigma_s, nu_sigma_f, chi, np.ones(6), CmfdConfig())
    problems = CmfdProblem(*args), InverseCmfdProblem(*args)
    for problem in problems:
        problem.finalize_pairs([np.zeros((0, 2), dtype=np.int64)])
    return problems, rng.uniform(0.5, 1.5, (6, 2))


@pytest.mark.parametrize(
    "scatter, fission", [(False, True), (True, False)], ids=["singular", "no-production"]
)
def test_skip_at_once(scatter, fission):
    problems, phi = two_cell_problem(scatter=scatter, fission=fission)
    step, want = (p.solve(phi, np.zeros((0, 2)), 1.0) for p in problems)
    assert (step.keff, step.inner_iterations, step.skipped) == (None, 0, True)
    np.testing.assert_array_equal(step.factors, np.ones((2, 2)))
    assert_close_step(step, want)


# ----------------------------------------------------------- the BLAS pool


def large_problem():
    """A converging coarse problem of 36 cells x 7 groups (n = 252, the
    ``c3d-z2`` size): large enough for OpenBLAS to thread its LU."""
    pair_modes = list(np.random.default_rng(1).integers(0, 4, 36 * 35 // 2))
    (shipped, _, _), phi, rows, keff = build_problem(
        seed=1, grid=(6, 6, 1), num_groups=7, num_fsrs=108, zero_flux=[False] * 36,
        pair_modes=pair_modes, leaks=[True] * 36, num_domains=2, current_exponent=-2,
        options=CmfdConfig(tolerance=1e-10, max_inner_iterations=300),
    )
    return shipped, phi, shipped.reduce(rows), keff


def step_bytes(step):
    return (
        float(step.keff).hex(), step.factors.tobytes(), step.inner_iterations,
        step.skipped, step.limited, step.pinned,
    )


@needs_two_threads
def test_coarse_solve_bits_do_not_follow_the_blas_pool():
    """The same solve under pools of one and two threads, byte for byte.
    The inverse it replaced differs here wherever two CPUs are usable."""
    problem, phi, currents, keff = large_problem()
    assert problem.num_cells * problem.num_groups >= 100
    steps = []
    for threads in (1, 2):
        with cpus.blas_threads(threads):
            steps.append(problem.solve(phi, currents, keff))
    assert not steps[0].skipped and steps[0].pinned
    assert step_bytes(steps[0]) == step_bytes(steps[1])


@needs_two_threads
def test_the_thread_count_is_lowered_and_restored():
    count = cpus.blas_pool()
    before = count.value
    with cpus.blas_threads(1) as pinned:
        assert pinned and count.value == 1
        with cpus.blas_threads(before + 1):  # never raised past what it had
            assert count.value == 1
    assert count.value == before


# ---------------------------------------------------------- cmfd_unpinned


def test_cmfd_unpinned_counts_the_solves_without_a_pool(monkeypatch):
    """0 where the pool is found, one per coarse solve where the lookup
    fails, and the same bits either way (the unpinned run is held on one
    thread from outside, so only the bookkeeping differs)."""
    cfg = mini_2d_config(
        solver={
            "max_iterations": 4, "keff_tolerance": 1e-14, "source_tolerance": 1e-14,
            "cmfd": True,
        }
    )
    pinned = AntMocApplication(cfg).run()
    counters = pinned.run_report.counters
    assert counters["cmfd_solves"] == 4
    assert counters["cmfd_unpinned"] == (0 if cpus.blas_pool() else 4)
    with cpus.blas_threads(1):
        monkeypatch.setattr(cpus, "blas_pool", lambda: None)
        unpinned = AntMocApplication(cfg).run()
    assert unpinned.run_report.counters["cmfd_unpinned"] == 4
    assert float(unpinned.keff).hex() == float(pinned.keff).hex()
    np.testing.assert_array_equal(unpinned.scalar_flux, pinned.scalar_flux)
