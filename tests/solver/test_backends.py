"""Sweep-kernel backend layer: name table, selection policy, plan reuse and
cross-backend numerical equivalence.

The equivalence tests pin every backend to the ``reference``
kernel (the seed lockstep loop kept verbatim): identical tallies, boundary
fluxes and k-eff at fixed iteration counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.solver import (
    KeffSolver,
    SourceTerms,
    TransportSweep2D,
    TransportSweep3D,
    get_backend,
    resolve_backend,
)
from repro.solver.backends import DEFAULT_BACKEND, backend_names
from repro.tracks import TrackGenerator

# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_backend_names_include_all(self):
        names = backend_names()
        assert set(names) == {"numpy", "reference"}

    def test_unknown_backend_raises(self):
        for name in ("cuda", "numba"):  # numba: pruned, not degraded to numpy
            with pytest.raises(SolverError, match="unknown sweep backend"):
                get_backend(name)
            with pytest.raises(SolverError, match="unknown sweep backend"):
                resolve_backend(name)

    def test_resolve_explicit(self):
        assert resolve_backend("reference").name == "reference"
        assert resolve_backend("NumPy").name == "numpy"

    def test_resolve_backend_instance_passthrough(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_resolve_default(self):
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_resolve_env_var(self, monkeypatch):
        """``REPRO_SWEEP_BACKEND`` selects nothing: the name alone does."""
        monkeypatch.setenv("REPRO_SWEEP_BACKEND", "reference")
        assert resolve_backend(None).name == DEFAULT_BACKEND
        assert resolve_backend("numpy").name == "numpy"

    def test_auto_selection(self):
        """``auto`` is not a backend: a config must name the kernel."""
        with pytest.raises(SolverError, match="unknown sweep backend"):
            resolve_backend("auto")


# ------------------------------------------------------------- plan layout


class TestPlanLayout:
    def test_plan_cached_on_generator(self, small_trackgen):
        assert small_trackgen.sweep_plan() is small_trackgen.sweep_plan()
        assert small_trackgen.sweep_topology() is small_trackgen.sweep_topology()

    def test_prefix_layout_consistent(self, small_trackgen):
        """The one position-major order is a permutation consistent with
        the forward index matrix (and, read from the last position down,
        with the backward one), and column widths only shrink."""
        plan = small_trackgen.sweep_plan()
        counts = np.diff(plan.offsets)
        order = plan.pos_order
        assert (np.diff(plan.col_counts) <= 0).all()
        assert plan.col_starts[-1] == plan.num_segments
        assert np.array_equal(np.sort(order), np.arange(plan.num_segments))
        for i in range(plan.max_positions):
            lo, hi = plan.col_starts[i], plan.col_starts[i + 1]
            rows = plan.track_order[: hi - lo]
            assert (counts[rows] > i).all()
            assert np.array_equal(order[lo:hi], plan.idx_fwd[rows, i])
            assert np.array_equal(order[lo:hi], plan.idx_bwd[rows, counts[rows] - 1 - i])
        np.testing.assert_array_equal(plan.pos_fsr, plan.seg_fsr[order])
        np.testing.assert_array_equal(plan.pos_len, plan.seg_len[order])

    def test_sweepers_share_one_plan(self, small_trackgen, two_group_fissile):
        terms = SourceTerms([two_group_fissile] * small_trackgen.geometry.num_fsrs)
        a = TransportSweep2D(small_trackgen, terms)
        b = TransportSweep2D(small_trackgen, terms, backend="reference")
        assert a.plan is b.plan


# ------------------------------------------------------------- equivalence

EQUIV = dict(rtol=1e-12, atol=1e-14)


def _pair_2d(trackgen, terms, backend):
    return (
        TransportSweep2D(trackgen, terms, backend=backend),
        TransportSweep2D(trackgen, terms, backend="reference"),
    )


@pytest.mark.parametrize("backend", ["numpy"])
class TestEquivalence:
    def test_sweep2d_tally_and_boundary(self, small_trackgen, two_group_fissile, backend):
        terms = SourceTerms([two_group_fissile] * small_trackgen.geometry.num_fsrs)
        fast, ref = _pair_2d(small_trackgen, terms, backend)
        q = np.random.default_rng(7).uniform(0.05, 1.0, (terms.num_regions, 2))
        for _ in range(3):  # several sweeps so boundary exchange feeds back
            t_fast, t_ref = fast.sweep(q), ref.sweep(q)
            np.testing.assert_allclose(t_fast, t_ref, **EQUIV)
        np.testing.assert_allclose(fast.psi_in, ref.psi_in, **EQUIV)
        np.testing.assert_allclose(fast.psi_out_last, ref.psi_out_last, **EQUIV)

    def test_sweep3d_tally_and_boundary(self, small_trackgen_3d, two_group_fissile, backend):
        segments = small_trackgen_3d.trace_all_3d()
        num_fsrs = small_trackgen_3d.geometry3d.num_fsrs
        terms = SourceTerms([two_group_fissile] * num_fsrs)
        fast = TransportSweep3D(small_trackgen_3d, terms, backend=backend)
        ref = TransportSweep3D(small_trackgen_3d, terms, backend="reference")
        q = np.random.default_rng(13).uniform(0.05, 1.0, (num_fsrs, 2))
        for _ in range(3):
            np.testing.assert_allclose(
                fast.sweep(segments, q), ref.sweep(segments, q), **EQUIV
            )
        np.testing.assert_allclose(fast.psi_in, ref.psi_in, **EQUIV)

    def test_keff_matches_reference_2d(self, pin_cell_geometry, backend):
        tg = TrackGenerator(
            pin_cell_geometry, num_azim=8, azim_spacing=0.3, num_polar=2
        ).generate()
        terms = SourceTerms(list(pin_cell_geometry.fsr_materials))
        keffs = []
        for name in (backend, "reference"):
            sweeper = TransportSweep2D(tg, terms, backend=name)
            solver = KeffSolver(
                terms,
                tg.fsr_volumes,
                sweep=sweeper.sweep,
                finalize=sweeper.finalize_scalar_flux,
                keff_tolerance=1e-14,
                source_tolerance=1e-14,
                max_iterations=5,
            )
            keffs.append(solver.solve().keff)
        assert abs(keffs[0] - keffs[1]) < 1e-10


# ----------------------------------------------------------------- timings


class TestTimings:
    def test_sweep_timing_hooks(self, small_trackgen, two_group_fissile):
        terms = SourceTerms([two_group_fissile] * small_trackgen.geometry.num_fsrs)
        sweeper = TransportSweep2D(small_trackgen, terms)
        assert sweeper.timings.num_plan_builds == 1
        assert sweeper.timings.num_sweeps == 0
        q = np.full((terms.num_regions, 2), 0.2)
        sweeper.sweep(q)
        sweeper.sweep(q)
        assert sweeper.timings.num_sweeps == 2
        assert sweeper.timings.sweep_seconds > 0.0
        d = sweeper.timings.as_dict()
        assert d["num_sweeps"] == 2
        assert set(d) == {
            "setup_seconds", "sweep_seconds", "num_sweeps", "num_plan_builds",
            "gather_seconds", "lockstep_seconds", "reduce_seconds",
            "fold_seconds", "num_folds",
        }
        assert "fold" not in sweeper.timings.kernel_phases()  # no CMFD, no fold
