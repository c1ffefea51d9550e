"""The array-code CMFD against the scalar loops it replaced, bit for bit.

``tests/solver/cmfd_oracle.py`` keeps the per-cell / per-face / per-leak
coarse assembly, the ``np.add.at`` restrictions and reductions, the
per-direction current fold and the scalar set-up walks. Hypothesis draws
coarse problems with 1–12 cells and 1–4 groups, zero-flux cells, faces
tallied in only one direction, leak pairs and signed currents scaled so
some face-groups trip the D-hat limiter. The shipped assembly under the
dense-inverse solve both oracles share (``InverseCmfdProblem``) must
agree with the scalar loops exactly: ``keff``, ``factors``
(``array_equal``), inner iterations, the skip decision and the limited
count. The shipped solve, which factorises instead of inverting, must
agree with that to 1e-12 relative with the same counts and skips, except
where rounding decides a guard (:func:`assert_agrees`). The limiter's postcondition ``|D-hat| <= D-tilde`` is checked on every
face-group the shipped assembly builds. An AST guard keeps it that way:
the methods a CMFD step runs between two sweeps hold one loop, the inner
power iteration.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.io.config import CmfdConfig
from repro.runtime.antmoc import GEOMETRY_BUILDERS
from repro.solver.backends import SweepPlan, TrackTopology
from repro.solver.cmfd import (
    CmfdProblem,
    CoarseMesh,
    CurrentTally,
    MeshSpec,
    fsr_points,
    local_exit_destinations,
    traversal_entry_cells,
)
from repro.tracks.segments import SegmentData
from tests.solver.cmfd_oracle import (
    InverseCmfdProblem,
    ScalarCmfdProblem,
    ScalarCurrentTally,
    scalar_fsr_points,
    scalar_local_exit_destinations,
    scalar_traversal_entry_cells,
)

oracle_settings = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: (nx, ny, nz) coarse grids with at most 12 bins.
GRIDS = [
    (nx, ny, nz)
    for nx in range(1, 5)
    for ny in range(1, 4)
    for nz in (1, 2)
    if nx * ny * nz <= 12
]


# ----------------------------------------------------------- coarse problems


def build_problem(seed, grid, num_groups, num_fsrs, zero_flux, pair_modes,
                  leaks, num_domains, current_exponent, options):
    """Three identical coarse problems — the shipped class, the scalar
    oracle and the inverse oracle — plus one solve's inputs.
    ``pair_modes`` picks, per unordered cell pair, no face (0), only
    a -> b (1), only b -> a (2) or both (3)."""
    rng = np.random.default_rng(seed)
    nx, ny, nz = grid
    spec = MeshSpec(
        x0=0.0, y0=0.0, hx=rng.uniform(0.5, 2.0), hy=rng.uniform(0.5, 2.0),
        nx=nx, ny=ny,
        z_edges=None if nz == 1 else (0.0, rng.uniform(0.5, 2.0), 3.0),
    )
    mesh = CoarseMesh(spec, rng.integers(0, nx * ny * nz, num_fsrs))
    cells, groups = mesh.num_cells, num_groups
    sigma_t = rng.uniform(0.2, 2.0, (num_fsrs, groups))
    sigma_s = rng.uniform(0.0, 1.0, (num_fsrs, groups, groups))
    sigma_s *= 0.9 * sigma_t[:, :, None] / sigma_s.sum(axis=2, keepdims=True)
    fissile = rng.random(num_fsrs) < 0.7
    fissile[0] = True
    nu_sigma_f = rng.uniform(0.0, 0.6, (num_fsrs, groups)) * fissile[:, None]
    chi = rng.dirichlet(np.ones(groups), num_fsrs)
    volumes = rng.uniform(0.1, 2.0, num_fsrs)
    phi = rng.uniform(0.1, 3.0, (num_fsrs, groups))
    phi[np.isin(mesh.cellmap, np.nonzero(zero_flux[:cells])[0])] = 0.0

    directed = []
    lower = [(a, b) for a in range(cells) for b in range(a + 1, cells)]
    for (a, b), mode in zip(lower, pair_modes):
        if mode & 1:
            directed.append((a, b))
        if mode & 2:
            directed.append((b, a))
    directed += [(c, -1) for c in range(cells) if leaks[c]]
    pairs = np.array(directed, dtype=np.int64).reshape(-1, 2)
    # Each pair is tallied by one or more domains, each table sorted like
    # a CurrentTally's.
    owner = rng.integers(0, num_domains, len(pairs))
    shared = rng.random(len(pairs)) < 0.3
    tables, rows = [], []
    scale = 10.0 ** current_exponent
    for d in range(num_domains):
        mine = pairs[(owner == d) | shared]
        tables.append(np.unique(mine, axis=0).reshape(-1, 2))
        rows.append(rng.normal(0.0, scale, (len(tables[-1]), groups)))
    args = (mesh, sigma_t, sigma_s, nu_sigma_f, chi, volumes, options)
    problems = CmfdProblem(*args), ScalarCmfdProblem(*args), InverseCmfdProblem(*args)
    for problem in problems:
        problem.finalize_pairs(tables)
    return problems, phi, rows, float(rng.uniform(0.5, 1.5))


@st.composite
def problems(draw):
    grid = draw(st.sampled_from(GRIDS))
    bins = grid[0] * grid[1] * grid[2]
    num_pairs = bins * (bins - 1) // 2
    return dict(
        seed=draw(st.integers(0, 2**32 - 1)),
        grid=grid,
        num_groups=draw(st.integers(1, 4)),
        num_fsrs=draw(st.integers(1, 24)),
        zero_flux=draw(st.lists(st.booleans(), min_size=bins, max_size=bins)),
        pair_modes=draw(
            st.lists(st.integers(0, 3), min_size=num_pairs, max_size=num_pairs)
        ),
        leaks=draw(st.lists(st.booleans(), min_size=bins, max_size=bins)),
        num_domains=draw(st.integers(1, 3)),
        current_exponent=draw(st.integers(-3, 2)),
        options=CmfdConfig(
            tolerance=draw(st.sampled_from([1e-12, 1e-8, 1e-5])),
            max_inner_iterations=draw(st.integers(1, 300)),
            relaxation=draw(st.sampled_from([0.5, 1.0])),
        ),
    )


def solve_both(params):
    """Solve one drawn problem both ways; returns the shipped step, the
    oracle's step, the shipped assembly's ``(D-tilde, D-hat, limited)``
    and the shipped problem with its fine flux. The shipped assembly under
    the oracle's inverse solve must give the oracle's step bit for bit."""
    (shipped, oracle, inverse), phi, rows, keff = build_problem(**params)
    for name in ("pairs", "row_offsets", "face_a", "face_b", "face_area",
                 "face_ha", "face_hb", "leak_cells", "leak_slots"):
        np.testing.assert_array_equal(getattr(shipped, name), getattr(oracle, name))
    currents = shipped.reduce(rows)
    np.testing.assert_array_equal(currents, oracle.reduce(rows))
    couplings = shipped._couplings
    seen = []

    def spy(*args):
        seen.append(couplings(*args))
        return seen[-1]

    shipped._couplings = spy
    step = shipped.solve(phi, currents, keff)
    want = oracle.solve(phi, currents, keff)
    assert len(seen) == 1
    assert_same_step(inverse.solve(phi, currents, keff), want)
    return step, want, seen[0], (shipped, phi)


def assert_same_step(step, want):
    assert step.keff == want.keff
    np.testing.assert_array_equal(step.factors, want.factors)
    assert step.inner_iterations == want.inner_iterations
    assert step.skipped == want.skipped
    assert step.limited == want.limited


def assert_close_step(step, want, rtol=1e-12):
    """The same outcome to ``rtol``: ``keff`` relative, each factor
    relative to its size or to 1 (a factor is a ratio near one), and the
    counts and skip decision exactly."""
    assert step.inner_iterations == want.inner_iterations
    assert step.skipped == want.skipped
    assert step.limited == want.limited
    if want.keff is None:
        assert step.keff is None
    else:
        assert abs(step.keff - want.keff) <= rtol * abs(want.keff)
    scale = np.maximum(np.abs(want.factors), 1.0)
    assert np.all(np.abs(step.factors - want.factors) <= rtol * scale)


def assert_agrees(step, want, tolerance):
    """:func:`assert_close_step`, except where a guard is decided by
    rounding: the stop test at the tolerance, or the sign of a flux that
    is zero in exact arithmetic (a drawn problem can have both). Such a
    guard splits the two solves at their last iteration only: their inner
    iteration counts differ by at most one, and where both converged
    their eigenvalues agree within ten tolerances."""
    assert step.limited == want.limited
    if (step.inner_iterations, step.skipped) == (want.inner_iterations, want.skipped):
        assert_close_step(step, want)
        return
    assert abs(step.inner_iterations - want.inner_iterations) <= 1
    if not (step.skipped or want.skipped):
        assert abs(step.keff - want.keff) <= 10 * tolerance * max(1.0, abs(want.keff))


@oracle_settings
@given(params=problems())
def test_solve_matches_scalar_oracle(params):
    step, want, (d_tilde, d_hat, limited), _ = solve_both(params)
    assert_agrees(step, want, params["options"].tolerance)
    assert limited == step.limited
    assert np.all(np.abs(d_hat) <= d_tilde)


def test_drawn_problems_reach_every_branch():
    """The builder is not vacuous: over a fixed sample it produces
    limited face-groups, converged and skipped solves, zero-flux cells
    and one-directional faces — the assembly bitwise-equal to the oracle
    and the solve within its tolerance."""
    rng = np.random.default_rng(7)
    outcomes = set()
    for seed in range(40):
        grid = GRIDS[seed % len(GRIDS)]
        bins = grid[0] * grid[1] * grid[2]
        params = dict(
            seed=seed, grid=grid, num_groups=1 + seed % 4, num_fsrs=2 * bins + 3,
            zero_flux=list(rng.random(bins) < 0.2),
            pair_modes=list(rng.integers(0, 4, bins * (bins - 1) // 2)),
            leaks=list(rng.random(bins) < 0.5), num_domains=1 + seed % 3,
            current_exponent=int(rng.integers(-3, 3)),
            options=CmfdConfig(tolerance=1e-8, max_inner_iterations=300),
        )
        step, want, _, (problem, phi) = solve_both(params)
        assert_close_step(step, want)
        outcomes.add("skipped" if step.skipped else "converged")
        if step.limited:
            outcomes.add("limited")
        cell_flux = np.bincount(problem.cellmap, weights=phi.sum(axis=1))
        if np.any(cell_flux == 0.0):
            outcomes.add("zero-flux cell")
        if np.setxor1d(problem._ab_faces, problem._ba_faces).size:
            outcomes.add("one-way face")
    assert outcomes == {
        "skipped", "converged", "limited", "zero-flux cell", "one-way face"
    }


# ------------------------------------------------------------ current tally


def tally_plan(counts, num_polar, seed):
    """A plan with real link tables (random links, terminal ends and
    zero-segment tracks) and track-independent quadrature weights."""
    rng = np.random.default_rng(seed)
    num_tracks = len(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    segments = SegmentData(
        rng.uniform(0.01, 3.0, offsets[-1]), rng.integers(0, 6, offsets[-1]), offsets
    )
    if num_polar:
        weights = np.tile(rng.uniform(0.1, 1.0, num_polar), (num_tracks, 1))
        inv_sin = rng.uniform(1.0, 3.0, num_polar)
    else:
        weights, inv_sin = np.full(num_tracks, rng.uniform(0.1, 1.0)), None
    terminal = rng.random((num_tracks, 2)) < 0.3
    topology = TrackTopology(
        weights,
        rng.integers(0, num_tracks, (num_tracks, 2)),
        rng.integers(0, 2, (num_tracks, 2)),
        terminal,
        terminal & False,
        inv_sin,
    )
    return SweepPlan(topology, segments), rng


@oracle_settings
@given(
    counts=st.lists(st.integers(0, 6), min_size=1, max_size=10),
    num_polar=st.sampled_from([0, 1, 3]),
    num_groups=st.sampled_from([1, 2, 7]),
    seed=st.integers(0, 2**16),
)
def test_current_tally_matches_scalar_oracle(counts, num_polar, num_groups, seed):
    plan, rng = tally_plan(counts, num_polar, seed)
    cells = rng.integers(0, 3, 6)
    try:
        want_entry = scalar_traversal_entry_cells(plan, cells)
    except SolverError:
        with pytest.raises(SolverError, match="cycle"):
            traversal_entry_cells(plan, cells)
        return
    np.testing.assert_array_equal(traversal_entry_cells(plan, cells), want_entry)
    exit_dst = local_exit_destinations(plan, cells)
    np.testing.assert_array_equal(exit_dst, scalar_local_exit_destinations(plan, cells))
    tally = CurrentTally(plan, cells, exit_dst, num_groups)
    oracle = ScalarCurrentTally(plan, cells, exit_dst, num_groups)
    np.testing.assert_array_equal(tally.pairs, oracle.pairs)
    for d in (0, 1):
        for got, want in zip(tally.capture.rows[d], oracle.capture.rows[d]):
            np.testing.assert_array_equal(got, want)
        assert tally.capture.dest[d] == oracle.capture.dest[d]
        for name in ("track_rows", "track_dest"):
            for got, want in zip(getattr(tally.capture, name)[d], getattr(oracle.capture, name)[d]):
                np.testing.assert_array_equal(got, want)
    psi_shape = (num_polar, num_groups) if num_polar else (num_groups,)
    for sweep in range(2):
        for d in (0, 1):
            crossed = rng.uniform(0.0, 2.0, oracle.capture.out[d].shape)
            tally.capture.out[d][...] = crossed
            oracle.capture.out[d][...] = crossed
        psi = [rng.uniform(0.0, 2.0, (len(counts),) + psi_shape) for _ in (0, 1)]
        tally.accumulate(psi)
        oracle.accumulate(psi)
        want = oracle.take()  # the oracle adds onto a zeroed tally
        if sweep == 0:
            first, first_want = tally.take(), want
            np.testing.assert_array_equal(first, first_want)
    # take() zeroed nothing, and the second fold wrote rather than added:
    # the tally holds exactly the last sweep's currents, and the array
    # handed over before it is untouched.
    np.testing.assert_array_equal(tally.take(), want)
    np.testing.assert_array_equal(first, first_want)
    psi_in = rng.uniform(0.0, 2.0, (len(counts), 2) + psi_shape)
    want_in = psi_in.copy()
    factors = rng.uniform(0.5, 1.5, (3, num_groups))
    tally.scale_boundary_flux(psi_in, factors)
    oracle.scale_boundary_flux(want_in, factors)
    np.testing.assert_array_equal(psi_in, want_in)


def test_entry_chase_reports_a_zero_segment_cycle():
    plan, _ = tally_plan([2, 0, 0], 0, 0)
    topology = plan.topology
    topology.terminal[:] = False
    topology.next_track[1:] = [[2, 2], [1, 1]]
    topology.next_dir[1:] = 0
    with pytest.raises(SolverError, match="cycle"):
        traversal_entry_cells(plan, np.zeros(6, dtype=np.int64))


# ---------------------------------------------------------------- fsr points


@pytest.mark.parametrize("name", sorted(GEOMETRY_BUILDERS))
def test_fsr_points_match_per_path_walk(name):
    geometry = GEOMETRY_BUILDERS[name]()
    radial = getattr(geometry, "radial", geometry)
    np.testing.assert_array_equal(fsr_points(radial), scalar_fsr_points(radial))


def test_fsr_points_without_a_lattice(reflective_box):
    """A universe-rooted geometry: every FSR takes the bounding-box centre."""
    np.testing.assert_array_equal(
        fsr_points(reflective_box), scalar_fsr_points(reflective_box)
    )


# ----------------------------------------------------------------- AST guard

SOLVER = Path(__file__).resolve().parents[2] / "src" / "repro" / "solver"

#: What a CMFD step runs between two sweeps, per class.
PER_ITERATION = {
    "CmfdProblem": ("solve", "_assemble", "_restrict", "reduce", "_couplings"),
    "CurrentTally": ("accumulate", "scale_boundary_flux", "take"),
}

#: A loop whose header names one of these iterates over the mesh, the pair
#: table or the tracks: scalar code growing back.
COUNT_WORDS = ("face", "cell", "leak", "pair", "track", "slot", "zip")


def _loops(path: Path, per_iteration: dict):
    """``(Class.method, header)`` for every loop or comprehension in the
    listed methods, plus the set of methods found."""
    loops, seen = [], set()
    for cls in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(cls, ast.ClassDef) or cls.name not in per_iteration:
            continue
        for fn in cls.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in per_iteration[cls.name]:
                seen.add(f"{cls.name}.{fn.name}")
                for node in ast.walk(fn):
                    if isinstance(node, ast.While):
                        loops.append((f"{cls.name}.{fn.name}", ast.unparse(node.test)))
                    elif isinstance(node, (ast.For, ast.comprehension)):
                        loops.append((f"{cls.name}.{fn.name}", ast.unparse(node.iter)))
    return loops, seen


def test_cmfd_step_is_array_code():
    """The one loop between two sweeps is the inner power iteration."""
    loops, seen = _loops(SOLVER / "cmfd.py", PER_ITERATION)
    assert seen == {f"{c}.{m}" for c, methods in PER_ITERATION.items() for m in methods}
    assert loops == [("CmfdProblem.solve", "range(1, options.max_inner_iterations + 1)")]
    assert not [h for _, h in loops if any(w in h for w in COUNT_WORDS)]


def test_guard_sees_the_scalar_loops():
    """Negative control: the guard flags every scalar loop of the oracle."""
    oracle = {
        "ScalarCmfdProblem": PER_ITERATION["CmfdProblem"],
        "ScalarCurrentTally": PER_ITERATION["CurrentTally"],
    }
    loops, _ = _loops(Path(__file__).with_name("cmfd_oracle.py"), oracle)
    flagged = {h for _, h in loops if any(w in h for w in COUNT_WORDS)}
    assert "range(num_cells)" in flagged
    assert "range(self.face_a.size)" in flagged
    assert "zip(self.leak_slots, self.leak_cells)" in flagged
    assert "zip(rows_per_domain, self.pair_maps)" in flagged
    assert len(loops) > 1
