"""The one sweep path against the per-direction loops it replaced.

``_oracle_sweep`` and ``_oracle_batched`` are the pre-fusion kernels kept
as test-only oracles: one position loop per direction over the plan's one
layout (direction 1 from the last position down), allocating expressions,
a whole-array exp table, a strided per-group bincount
(``_tally_from_segments``) and (for the widened sweep) one widened
einsum. Every comparison is bitwise (``assert_array_equal``) on the
tally, the exit ``psi`` and ``capture.out``.
``test_3d_working_set`` pins the 3D kernel's memory: group-major buffers,
one ``dpsi`` and one exp table for both directions and no flat tally
index; ``test_2d_working_set`` pins 2D's one table and one flat index.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenario.batched import BatchedSweep2D
from repro.solver import SourceTerms, TransportSweep2D, TransportSweep3D
from repro.solver.backends import SweepContext, SweepPlan, SweepWorkspace, TrackTopology
from repro.solver.backends import plan as plan_module
from repro.solver.backends.numpy_backend import NumpySweepBackend
from repro.solver.cmfd import CurrentTally, local_exit_destinations
from repro.solver.expeval import ExponentialEvaluator
from repro.tracks.segments import SegmentData

EVALUATOR = ExponentialEvaluator.shared()
NUM_FSRS = 5


# ------------------------------------------------------------------ oracles


def _tally_from_segments(contrib, seg_fsr, num_fsrs):
    """Reduce per-segment contributions ``(S, G)`` into a ``(R, G)`` tally,
    one bincount per group."""
    num_groups = contrib.shape[1]
    tally = np.empty((num_fsrs, num_groups))
    for g in range(num_groups):
        tally[:, g] = np.bincount(seg_fsr, weights=contrib[:, g], minlength=num_fsrs)
    return tally


def _oracle_table(plan, sigma_t, evaluator):
    """The whole-array exp table of the one layout (the pre-block build)."""
    fsr, length = plan.pos_fsr, plan.pos_len
    if plan.topology.is_3d:
        tau = sigma_t[fsr] * length[:, None]
    else:
        tau = (
            sigma_t[fsr][:, None, :]
            * length[:, None, None]
            * plan.topology.inv_sin[None, :, None]
        )
    return evaluator(tau)


def _walk(plan, d):
    """Direction ``d``'s positions in walk order: up from 0, or down from
    the last."""
    positions = range(plan.max_positions)
    return positions if d == 0 else positions[::-1]


def _oracle_sweep(plan, psi, reduced_source, sigma_t, evaluator, capture, use_table=True):
    """The single-state numpy kernels before fusion (2D and 3D)."""
    is_3d = plan.topology.is_3d
    expf = _oracle_table(plan, sigma_t, evaluator) if use_table else None
    starts = plan.col_starts
    inv_sin = plan.topology.inv_sin
    fsr = plan.pos_fsr
    tally = np.zeros((NUM_FSRS, psi[0].shape[-1]))
    for d in (0, 1):
        cur = psi[d][plan.track_order]
        dpsi = np.empty((plan.num_segments,) + psi[0].shape[1:])
        for i, p in enumerate(_walk(plan, d)):
            lo, hi = starts[p], starts[p + 1]
            f = fsr[lo:hi]
            if expf is not None:
                e = expf[lo:hi]
            elif is_3d:
                e = evaluator(sigma_t[f] * plan.pos_len[lo:hi, None])
            else:
                e = evaluator(
                    sigma_t[f][:, None, :]
                    * plan.pos_len[lo:hi, None, None]
                    * inv_sin[None, :, None]
                )
            view = cur[: hi - lo]
            q = reduced_source[f] if is_3d else reduced_source[f][:, None, :]
            dp = (view - q) * e
            view -= dp
            dpsi[lo:hi] = dp
            if capture is not None:
                rows = capture.rows[d][i]
                if rows.size:
                    capture.out[d][capture.dest[d][i]] = view[rows]
        psi[d][plan.track_order] = cur
        if is_3d:
            np.multiply(dpsi, plan.pos_weights[:, None], out=dpsi)
            tally += _tally_from_segments(dpsi, fsr, NUM_FSRS)
        else:
            contrib = np.einsum("spg,sp->sg", dpsi, plan.pos_weights)
            tally += _tally_from_segments(contrib, fsr, NUM_FSRS)
    return tally


def _oracle_batched(plan, psi, reduced_stack, sigmas, evaluator, capture, use_table=True):
    """The scenario-widened kernel before fusion."""
    num_states = len(sigmas)
    num_polar, num_groups = psi[0].shape[2:]
    starts = plan.col_starts
    inv_sin = plan.topology.inv_sin
    table = None
    if use_table:
        table = np.stack([_oracle_table(plan, sigma, evaluator) for sigma in sigmas], axis=1)
    fsr = plan.pos_fsr
    source = np.ascontiguousarray(reduced_stack[:, fsr].transpose(1, 0, 2))[:, :, None, :]
    total = np.zeros((NUM_FSRS, num_states, num_groups))
    for d in (0, 1):
        cur = psi[d][plan.track_order]
        dpsi = np.empty((plan.num_segments, num_states, num_polar, num_groups))
        for i, p in enumerate(_walk(plan, d)):
            lo, hi = starts[p], starts[p + 1]
            if table is not None:
                e = table[lo:hi]
            else:
                f = fsr[lo:hi]
                e = np.stack(
                    [
                        evaluator(
                            sigma[f][:, None, :]
                            * plan.pos_len[lo:hi, None, None]
                            * inv_sin[None, :, None]
                        )
                        for sigma in sigmas
                    ],
                    axis=1,
                )
            view = cur[: hi - lo]
            dp = (view - source[lo:hi]) * e
            view -= dp
            dpsi[lo:hi] = dp
            if capture is not None:
                rows = capture.rows[d][i]
                if rows.size:
                    capture.out[d][capture.dest[d][i]] = view[rows]
        psi[d][plan.track_order] = cur
        contrib = np.einsum("nspg,np->nsg", dpsi, plan.pos_weights)
        total += _tally_from_segments(
            contrib.reshape(plan.num_segments, num_states * num_groups), fsr, NUM_FSRS
        ).reshape(NUM_FSRS, num_states, num_groups)
    return [np.ascontiguousarray(total[:, s]) for s in range(num_states)]


# ------------------------------------------------------------- case builder


def _make_plan(counts, num_polar, seed):
    """A synthetic plan over tracks with the given segment counts
    (``num_polar == 0`` makes it a 3D plan). Every track end is terminal:
    the kernel never reads the link tables."""
    rng = np.random.default_rng(seed)
    num_tracks = len(counts)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    segments = SegmentData(
        rng.uniform(0.01, 3.0, offsets[-1]),
        rng.integers(0, NUM_FSRS, offsets[-1]),
        offsets,
    )
    if num_polar:
        weights = rng.uniform(0.1, 1.0, (num_tracks, num_polar))
        inv_sin = rng.uniform(1.0, 3.0, num_polar)
    else:
        weights, inv_sin = rng.uniform(0.1, 1.0, num_tracks), None
    links = np.zeros((num_tracks, 2), dtype=np.int64)
    ends = np.ones((num_tracks, 2), dtype=bool)
    topology = TrackTopology(weights, links, links, ends, ends & False, inv_sin)
    return SweepPlan(topology, segments), rng


def _capture_for(plan, rng, num_groups, widen=None):
    """A real CMFD capture plan over a random coarse-cell map (``widen``
    adds the scenario-widened state axis to the output buffers)."""
    cells = rng.integers(0, 3, NUM_FSRS)
    tally = CurrentTally(plan, cells, local_exit_destinations(plan, cells), num_groups)
    base = tally.capture
    if widen is None:
        return base
    out = [
        np.zeros((base.out[d].shape[0], widen) + base.out[d].shape[1:]) for d in (0, 1)
    ]
    return base.with_out(out)


def _clone_capture(capture):
    if capture is None:
        return None
    return capture.with_out([o.copy() for o in capture.out])


def _fake_batched(plan, sigmas, num_polar, num_groups):
    """A BatchedSweep2D over a synthetic plan: the sweep reads only the
    plan, the per-state ``sigma_t_safe`` and the layout sizes."""
    trackgen = SimpleNamespace(
        sweep_plan=lambda: plan,
        num_tracks=plan.topology.num_tracks,
        polar=SimpleNamespace(num_polar_half=num_polar),
    )
    terms = [
        SimpleNamespace(sigma_t_safe=sigma, num_groups=num_groups, num_regions=NUM_FSRS)
        for sigma in sigmas
    ]
    return BatchedSweep2D(trackgen, terms)


def _check_single(plan, rng, num_groups, with_capture, use_table=True):
    psi_shape = (num_groups,)
    if not plan.topology.is_3d:
        psi_shape = (plan.topology.num_polar, num_groups)
    num_tracks = plan.topology.num_tracks
    sigma_t = rng.uniform(0.1, 2.0, (NUM_FSRS, num_groups))
    source = rng.uniform(0.0, 1.0, (NUM_FSRS, num_groups))
    psi = [rng.uniform(0.0, 2.0, (num_tracks,) + psi_shape) for _ in (0, 1)]
    capture = _capture_for(plan, rng, num_groups) if with_capture else None
    want_psi = [p.copy() for p in psi]
    want_capture = _clone_capture(capture)
    want = _oracle_sweep(plan, want_psi, source, sigma_t, EVALUATOR, want_capture, use_table)
    ctx = SweepContext(source, sigma_t, EVALUATOR, NUM_FSRS, capture=capture)
    got = NumpySweepBackend().sweep(plan, psi, ctx)
    np.testing.assert_array_equal(got, want)
    for d in (0, 1):
        np.testing.assert_array_equal(psi[d], want_psi[d])
        if capture is not None:
            np.testing.assert_array_equal(capture.out[d], want_capture.out[d])
    assert ctx.marks is not None and ctx.marks[0] <= ctx.marks[1] <= ctx.marks[2]


def _check_batched(plan, rng, num_groups, num_states, with_capture, use_table=True):
    num_polar = plan.topology.num_polar
    sigmas = [rng.uniform(0.1, 2.0, (NUM_FSRS, num_groups)) for _ in range(num_states)]
    stack = rng.uniform(0.0, 1.0, (num_states, NUM_FSRS, num_groups))
    sweeper = _fake_batched(plan, sigmas, num_polar, num_groups)
    assert (sweeper._table is not None) == use_table
    sweeper.psi_in[...] = rng.uniform(0.0, 2.0, sweeper.psi_in.shape)
    capture = _capture_for(plan, rng, num_groups, widen=num_states) if with_capture else None
    sweeper._capture = capture
    want_psi = [sweeper.psi_in[:, 0].copy(), sweeper.psi_in[:, 1].copy()]
    want_capture = _clone_capture(capture)
    want = _oracle_batched(plan, want_psi, stack, sigmas, EVALUATOR, want_capture, use_table)
    got = sweeper.sweep(stack)
    for s in range(num_states):
        np.testing.assert_array_equal(got[s], want[s])
    # All ends are terminal, so no exit flux survives the exchange; it is
    # compared in test_widened_exit_flux_matches.
    if capture is not None:
        for d in (0, 1):
            np.testing.assert_array_equal(capture.out[d], want_capture.out[d])


# --------------------------------------------------------------- hypothesis

counts_strategy = st.one_of(
    st.lists(st.integers(1, 9), min_size=1, max_size=12),  # ragged
    st.builds(lambda n, c: [c] * n, st.integers(1, 8), st.integers(1, 6)),  # all equal
    st.builds(lambda c: [c], st.integers(1, 9)),  # a single track
)

kernel_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@kernel_settings
@given(
    counts=counts_strategy,
    num_polar=st.sampled_from([1, 2, 3, 4]),
    num_groups=st.sampled_from([1, 2, 7]),
    with_capture=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_fused_2d_matches_per_direction_loops(counts, num_polar, num_groups, with_capture, seed):
    plan, rng = _make_plan(counts, num_polar, seed)
    _check_single(plan, rng, num_groups, with_capture)


@kernel_settings
@given(
    counts=counts_strategy,
    num_groups=st.sampled_from([1, 2, 7]),
    with_capture=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_fused_3d_matches_per_direction_loops(counts, num_groups, with_capture, seed):
    plan, rng = _make_plan(counts, 0, seed)
    _check_single(plan, rng, num_groups, with_capture)


@kernel_settings
@given(
    counts=counts_strategy,
    num_polar=st.sampled_from([1, 2, 3, 4]),
    num_groups=st.sampled_from([1, 2, 7]),
    num_states=st.sampled_from([1, 3]),
    with_capture=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_fused_widened_matches_widened_loops(
    counts, num_polar, num_groups, num_states, with_capture, seed
):
    plan, rng = _make_plan(counts, num_polar, seed)
    _check_batched(plan, rng, num_groups, num_states, with_capture)


def test_widened_exit_flux_matches():
    """The widened exit flux, through a layout whose ends are linked."""
    plan, rng = _make_plan([4, 1, 6, 6, 2], 2, 11)
    sigmas = [rng.uniform(0.1, 2.0, (NUM_FSRS, 7)) for _ in range(3)]
    stack = rng.uniform(0.0, 1.0, (3, NUM_FSRS, 7))
    sweeper = _fake_batched(plan, sigmas, 2, 7)
    sweeper.terminal = np.zeros_like(sweeper.terminal)
    sweeper.next_track = np.stack([np.arange(5), np.arange(5)], axis=1)
    sweeper.next_dir = np.stack([np.zeros(5, int), np.ones(5, int)], axis=1)
    sweeper.psi_in[...] = rng.uniform(0.0, 2.0, sweeper.psi_in.shape)
    want_psi = [sweeper.psi_in[:, 0].copy(), sweeper.psi_in[:, 1].copy()]
    _oracle_batched(plan, want_psi, stack, sigmas, EVALUATOR, None)
    sweeper.sweep(stack)
    for d in (0, 1):  # each end feeds its own entry back
        np.testing.assert_array_equal(sweeper.psi_in[:, d], want_psi[d])


# ------------------------------------------------------- table-None fallback


@pytest.mark.parametrize("num_polar", [0, 2])
def test_fallback_without_table(monkeypatch, num_polar):
    monkeypatch.setattr(plan_module, "MAX_EXPF_ELEMENTS", 0)
    plan, rng = _make_plan([5, 2, 7, 1, 3, 3], num_polar, 3)
    assert plan.pos_expf(rng.uniform(0.1, 2.0, (NUM_FSRS, 7)), EVALUATOR) is None
    _check_single(plan, rng, 7, with_capture=True, use_table=False)


def test_widened_fallback_without_table(monkeypatch):
    from repro.scenario import batched

    monkeypatch.setattr(batched, "MAX_EXPF_ELEMENTS", 0)
    plan, rng = _make_plan([5, 2, 7, 1, 3, 3], 2, 4)
    _check_batched(plan, rng, 7, 3, with_capture=True, use_table=False)


# ------------------------------------------------------------ blockwise table


@pytest.mark.parametrize("num_polar", [0, 3])
@pytest.mark.parametrize("block", [1, 3, 7, 10_000])
def test_blockwise_table_equals_whole_array(monkeypatch, num_polar, block):
    monkeypatch.setattr(plan_module, "EXPF_BLOCK_SEGMENTS", block)
    plan, rng = _make_plan([9, 1, 4, 4, 6, 2, 8], num_polar, 5)
    sigma_t = rng.uniform(0.1, 2.0, (NUM_FSRS, 7))
    table = plan.pos_expf(sigma_t, EVALUATOR)
    whole = _oracle_table(plan, sigma_t, EVALUATOR)
    assert table.shape == whole.shape
    np.testing.assert_array_equal(table, whole)
    assert plan.pos_expf(sigma_t, EVALUATOR) is table  # cached per (sigma_t, evaluator)


@pytest.mark.parametrize("num_polar", [0, 3])
def test_rebuilt_table_is_held_once(monkeypatch, num_polar):
    """A new sigma_t drops the cached table before the next is allocated:
    the rebuild peaks at one table plus one block's temporaries."""
    import tracemalloc

    block = 64
    monkeypatch.setattr(plan_module, "EXPF_BLOCK_SEGMENTS", block)
    plan, rng = _make_plan([40, 7, 33, 1, 25] * 40, num_polar, 6)
    sigmas = [rng.uniform(0.1, 2.0, (NUM_FSRS, 7)) for _ in range(2)]
    table_bytes = plan.expf_elements(7) * 8
    # tau, the evaluator's index and interpolation arrays, its result
    temporaries = 8 * table_bytes * block // plan.num_segments
    assert table_bytes > 4 * temporaries
    tracemalloc.start()
    try:
        plan.pos_expf(sigmas[0], EVALUATOR)
        held = tracemalloc.get_traced_memory()[0] - table_bytes
        tracemalloc.reset_peak()
        rebuilt = plan.pos_expf(sigmas[1], EVALUATOR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rebuilt.nbytes == table_bytes
    assert peak - held <= table_bytes + temporaries


# ------------------------------------------------------------ workspace reuse


def _terms_for(trackgen, material, is_3d=False):
    geometry = trackgen.geometry3d if is_3d else trackgen.geometry
    return SourceTerms([material] * geometry.num_fsrs)


def _sources(terms, count, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.05, 0.5, (terms.num_regions, terms.num_groups)) for _ in range(count)]


@pytest.mark.parametrize("is_3d", [False, True], ids=["2d", "3d"])
def test_workspace_reused_across_sweeps(request, two_group_fissile, is_3d):
    """Buffers survive across sweeps, and the kernel's phase split fits
    inside its sweep time — also when 3D runs the phases per direction."""
    if is_3d:
        trackgen = request.getfixturevalue("small_trackgen_3d")
        terms = _terms_for(trackgen, two_group_fissile, is_3d=True)
        segments = trackgen.trace_all_3d()
        sweeper = TransportSweep3D(trackgen, terms)
        oracle = TransportSweep3D(trackgen, terms, backend="reference")

        def sweep(target, q):
            return target.sweep(segments, q)

    else:
        trackgen = request.getfixturevalue("small_trackgen")
        terms = _terms_for(trackgen, two_group_fissile)
        sweeper = TransportSweep2D(trackgen, terms)
        oracle = TransportSweep2D(trackgen, terms, backend="reference")

        def sweep(target, q):
            return target.sweep(q)

    assert sweeper.workspace._starts is None  # allocated at the first sweep
    for q in _sources(terms, 3):
        tally = sweep(sweeper, q)
        dpsi = sweeper.workspace.dpsi
        np.testing.assert_allclose(tally, sweep(oracle, q), rtol=1e-12, atol=1e-14)
    assert sweeper.workspace.dpsi is dpsi
    np.testing.assert_allclose(sweeper.psi_in, oracle.psi_in, rtol=1e-12, atol=1e-14)
    phases = sweeper.timings.kernel_phases()
    assert set(phases) == {"gather", "lockstep", "reduce"}
    assert all(seconds > 0.0 for seconds in phases.values())
    assert sum(phases.values()) <= sweeper.timings.sweep_seconds


def test_workspace_survives_otf_rebind(small_trackgen_3d, two_group_fissile):
    """OTF hands a fresh SegmentData to every sweep: the plan is rebound,
    the workspace (keyed on the layout) is kept, and the result is the one
    a sweeper with a fresh workspace per plan computes."""
    terms = _terms_for(small_trackgen_3d, two_group_fissile, is_3d=True)
    reused = TransportSweep3D(small_trackgen_3d, terms)
    fresh = TransportSweep3D(small_trackgen_3d, terms)
    buffers = None
    for q in _sources(terms, 3):
        segments = small_trackgen_3d.trace_all_3d()
        got = reused.sweep(segments, q)
        if buffers is None:
            buffers = reused.workspace.dpsi
        fresh.workspace = SweepWorkspace()
        np.testing.assert_array_equal(got, fresh.sweep(segments, q))
    assert reused.workspace.dpsi is buffers
    assert reused.timings.num_plan_builds == 3
    np.testing.assert_array_equal(reused.psi_in, fresh.psi_in)


def _assert_3d_working_set(sweeper, plan):
    """Group-major buffers, one dpsi and one exp table for both
    directions, no flat tally index: table + workspace fit in 2 (S, G) and
    3 (T, G) arrays."""
    work = sweeper.workspace
    table = plan.pos_expf(sweeper.terms.sigma_t_safe, sweeper.evaluator)
    assert work.flat is None and work.contrib is None
    assert work.dpsi[0] is work.dpsi[1]
    assert table.shape == (plan.num_segments, sweeper.num_groups)
    for array in (*work.cur, work.dpsi[0], work.weights, table):
        assert array.T.flags.c_contiguous
    held = (table, *work.cur, work.dpsi[0], work.weights)
    num_groups = sweeper.num_groups
    bound = 2 * plan.num_segments * num_groups * 8 + 3 * plan.topology.num_tracks * num_groups * 8
    assert sum(array.nbytes for array in held) <= bound


def test_3d_working_set(small_trackgen_3d, two_group_fissile):
    """The 3D kernel's memory, after a sweep and after an OTF rebind."""
    terms = _terms_for(small_trackgen_3d, two_group_fissile, is_3d=True)
    sweeper = TransportSweep3D(small_trackgen_3d, terms)
    source = _sources(terms, 1)[0]
    first = small_trackgen_3d.trace_all_3d()
    sweeper.sweep(first, source)
    plan = sweeper.plan_for(first)
    _assert_3d_working_set(sweeper, plan)
    regenerated = small_trackgen_3d.trace_all_3d()
    sweeper.sweep(regenerated, source)
    rebound = sweeper.plan_for(regenerated)
    assert rebound is not plan and rebound.col_starts is plan.col_starts
    _assert_3d_working_set(sweeper, rebound)


def test_2d_working_set(small_trackgen, two_group_fissile):
    """2D holds one exp table of ``expf_elements`` elements and one flat
    tally index; only ``cur`` and ``dpsi`` are per direction."""
    terms = _terms_for(small_trackgen, two_group_fissile)
    sweeper = TransportSweep2D(small_trackgen, terms)
    sweeper.sweep(_sources(terms, 1)[0])
    plan, work = sweeper.plan, sweeper.workspace
    table = plan.pos_expf(terms.sigma_t_safe, sweeper.evaluator)
    num_polar, num_groups = plan.topology.num_polar, terms.num_groups
    assert table.shape == (plan.num_segments, num_polar, num_groups)
    assert table.size == plan.expf_elements(num_groups)
    assert isinstance(work.flat, np.ndarray) and work.flat.shape == (plan.num_segments, num_groups)
    np.testing.assert_array_equal(work.flat // num_groups, np.repeat(plan.pos_fsr[:, None], num_groups, 1))
    assert work.dpsi[0] is not work.dpsi[1] and work.cur[0] is not work.cur[1]


# ------------------------------------------------------------------ walks

walk_counts = st.lists(
    st.one_of(st.just(0), st.just(1), st.integers(2, 12)), min_size=1, max_size=14
)


@settings(max_examples=200, deadline=None)
@given(counts=walk_counts, num_polar=st.sampled_from([0, 2]))
def test_walks_visit_each_track_in_its_order_once(counts, num_polar):
    """Over ragged layouts (tracks of 0, 1 and many segments) direction
    0's walk visits each track's segments first to last and direction 1's
    walk of the same layout last to first, each exactly once."""
    plan, _ = _make_plan(counts, num_polar, 0)
    trailing = (num_polar, 1) if num_polar else (1,)
    work = SweepWorkspace().bind(plan, trailing)
    for d in (0, 1):
        visits: list[list[int]] = [[] for _ in counts]
        for lo, hi, view, dp, _weight in work.steps[d]:
            assert view.shape[0] == dp.shape[0] == hi - lo
            for row in range(hi - lo):
                visits[plan.track_order[row]].append(int(plan.pos_order[lo + row]))
        for track, seen in enumerate(visits):
            first, end = int(plan.offsets[track]), int(plan.offsets[track + 1])
            own = list(range(first, end))
            assert seen == (own if d == 0 else own[::-1])


def _solo(trackgen, terms, sources):
    sweeper = TransportSweep2D(trackgen, terms)
    return [sweeper.sweep(q) for q in sources], sweeper.psi_in


def test_interleaved_sweepers_share_one_plan(small_trackgen, two_group_fissile, two_group_absorber):
    terms_a = _terms_for(small_trackgen, two_group_fissile)
    terms_b = _terms_for(small_trackgen, two_group_absorber)
    src_a, src_b = _sources(terms_a, 3, seed=1), _sources(terms_b, 3, seed=2)
    want_a, psi_a = _solo(small_trackgen, terms_a, src_a)
    want_b, psi_b = _solo(small_trackgen, terms_b, src_b)
    a = TransportSweep2D(small_trackgen, terms_a)
    b = TransportSweep2D(small_trackgen, terms_b)
    assert a.plan is b.plan and a.workspace is not b.workspace
    for i in range(3):
        np.testing.assert_array_equal(a.sweep(src_a[i]), want_a[i])
        np.testing.assert_array_equal(b.sweep(src_b[i]), want_b[i])
    np.testing.assert_array_equal(a.psi_in, psi_a)
    np.testing.assert_array_equal(b.psi_in, psi_b)


def test_two_threads_sweep_one_shared_plan(small_trackgen, two_group_fissile, two_group_absorber):
    import sys

    materials = (two_group_fissile, two_group_absorber)
    terms = [_terms_for(small_trackgen, m) for m in materials]
    sources = [_sources(t, 200, seed=i) for i, t in enumerate(terms)]
    want = [_solo(small_trackgen, t, s) for t, s in zip(terms, sources)]
    sweepers = [TransportSweep2D(small_trackgen, t) for t in terms]
    got: list = [None, None]
    barrier = threading.Barrier(2, timeout=30)

    def run(k):
        barrier.wait()
        got[k] = [sweepers[k].sweep(q) for q in sources[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k in (0, 1):
        for tally, expected in zip(got[k], want[k][0]):
            np.testing.assert_array_equal(tally, expected)
        np.testing.assert_array_equal(sweepers[k].psi_in, want[k][1])
