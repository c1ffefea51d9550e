"""Sweep-kernel backend layer: registry, selection policy, plan reuse and
cross-backend numerical equivalence.

The equivalence tests pin every registered backend to the ``reference``
kernel (the seed lockstep loop kept verbatim): identical tallies, boundary
fluxes and k-eff at fixed iteration counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.loadbalance import map_angles_to_gpus
from repro.solver import (
    KeffSolver,
    SourceTerms,
    TransportSweep2D,
    TransportSweep3D,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.solver.backends import BACKEND_ENV_VAR, DEFAULT_BACKEND, backend_names
from repro.tracks import TrackGenerator

# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_backend_names_include_all(self):
        names = backend_names()
        assert set(names) == {"auto", "numpy", "reference"}

    def test_unknown_backend_raises(self):
        for name in ("cuda", "numba"):  # numba: pruned, not degraded to numpy
            with pytest.raises(SolverError, match="unknown sweep backend"):
                get_backend(name)
            with pytest.raises(SolverError, match="unknown sweep backend"):
                resolve_backend(name)

    def test_availability_map(self):
        avail = available_backends()
        assert avail["numpy"] is True
        assert avail["reference"] is True

    def test_resolve_explicit(self):
        assert resolve_backend("reference").name == "reference"
        assert resolve_backend("NumPy").name == "numpy"

    def test_resolve_backend_instance_passthrough(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_resolve_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_resolve_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "reference")
        assert resolve_backend(None).name == "reference"
        # Explicit argument beats the environment.
        assert resolve_backend("numpy").name == "numpy"

    def test_auto_selection(self):
        assert resolve_backend("auto").name == "numpy"


# ------------------------------------------------------------- plan layout


class TestPlanLayout:
    def test_plan_cached_on_generator(self, small_trackgen):
        assert small_trackgen.sweep_plan() is small_trackgen.sweep_plan()
        assert small_trackgen.sweep_topology() is small_trackgen.sweep_topology()

    def test_prefix_layout_consistent(self, small_trackgen):
        """The position-major order is a permutation consistent with the
        dense index matrices, and column widths only shrink."""
        plan = small_trackgen.sweep_plan()
        counts = np.diff(plan.offsets)
        assert (np.diff(plan.col_counts) <= 0).all()
        assert plan.col_starts[-1] == plan.num_segments
        for d, index in enumerate((plan.idx_fwd, plan.idx_bwd)):
            order = plan.pos_order[d]
            assert np.array_equal(np.sort(order), np.arange(plan.num_segments))
            for i in range(plan.max_positions):
                lo, hi = plan.col_starts[i], plan.col_starts[i + 1]
                rows = plan.track_order[: hi - lo]
                assert (counts[rows] > i).all()
                assert np.array_equal(order[lo:hi], index[rows, i])
            np.testing.assert_array_equal(plan.pos_fsr[d], plan.seg_fsr[order])

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

    def test_sweep2d_masked(self, reflective_box, two_group_fissile, backend):
        tg = TrackGenerator(
            reflective_box, num_azim=8, azim_spacing=0.5, num_polar=2
        ).generate()
        terms = SourceTerms([two_group_fissile] * reflective_box.num_fsrs)
        mapping = map_angles_to_gpus(
            np.ones(tg.azimuthal.num_angles), 2, pair_complementary=True
        )
        azim = np.array([t.azim for t in tg.tracks])
        mask = np.isin(azim, mapping.angles_of_gpu(0))
        fast, ref = _pair_2d(tg, terms, backend)
        q = np.random.default_rng(11).uniform(0.05, 1.0, (terms.num_regions, 2))
        for _ in range(2):
            np.testing.assert_allclose(
                fast.sweep(q, track_mask=mask), ref.sweep(q, track_mask=mask), **EQUIV
            )
        np.testing.assert_allclose(fast.psi_in, ref.psi_in, **EQUIV)

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
        }
