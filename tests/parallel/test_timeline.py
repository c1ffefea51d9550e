"""Tests for the paper-scale cluster timeline simulator."""

import numpy as np
import pytest

from repro.errors import HardwareModelError
from repro.parallel.timeline import ClusterTransportSimulator, ScalingStudy
from repro.parallel.timeline import block_assign, lpt_assign


class TestAssignment:
    def test_lpt_balances(self):
        rng = np.random.default_rng(0)
        weights = rng.lognormal(0, 1.0, 1000)
        loads = lpt_assign(weights, 16)
        assert loads.sum() == pytest.approx(weights.sum())
        assert loads.max() / loads.mean() < 1.01

    def test_block_preserves_total(self):
        weights = np.arange(100.0)
        loads = block_assign(weights, 7)
        assert loads.sum() == pytest.approx(weights.sum())

    def test_lpt_beats_block(self):
        rng = np.random.default_rng(1)
        weights = rng.lognormal(0, 1.2, 500)
        lpt = lpt_assign(weights, 10)
        block = block_assign(weights, 10)
        assert lpt.max() <= block.max()

    def test_invalid_parts(self):
        with pytest.raises(HardwareModelError):
            lpt_assign(np.ones(3), 0)
        with pytest.raises(HardwareModelError):
            block_assign(np.ones(3), 0)


@pytest.fixture(scope="module")
def simulator():
    return ClusterTransportSimulator()


STRONG_TOTAL = 54_581_544 * 1000  # paper: 54.58M tracks/GPU at 1000 GPUs


class TestSimulate:
    def test_report_fields(self, simulator):
        rep = simulator.simulate(STRONG_TOTAL, 1000, storage="MANAGER")
        assert rep.num_gpus == 1000
        assert rep.iteration_seconds == pytest.approx(
            rep.compute_seconds + rep.comm_seconds
        )
        assert 0.0 <= rep.resident_fraction <= 1.0
        assert rep.gpu_load_uniformity >= 1.0

    def test_more_gpus_less_time(self, simulator):
        t1 = simulator.simulate(STRONG_TOTAL, 1000).iteration_seconds
        t2 = simulator.simulate(STRONG_TOTAL, 4000).iteration_seconds
        assert t2 < t1

    def test_exp_oom_at_scale(self, simulator):
        """EXP cannot fit the abstract's 100-billion-track problem on
        16 GB devices at low GPU counts — the Fig. 9 memory wall."""
        hundred_billion = 100e9
        rep = simulator.simulate(hundred_billion, 1000, storage="EXP")
        assert rep.out_of_memory
        rep_large = simulator.simulate(hundred_billion, 16000, storage="EXP")
        assert not rep_large.out_of_memory

    def test_otf_memory_minimal(self, simulator):
        exp = simulator.simulate(STRONG_TOTAL, 8000, storage="EXP")
        otf = simulator.simulate(STRONG_TOTAL, 8000, storage="OTF")
        assert otf.memory_per_gpu_bytes < exp.memory_per_gpu_bytes
        assert otf.resident_fraction == 0.0

    def test_storage_time_ordering(self, simulator):
        """EXP <= MANAGER <= OTF in iteration time (Fig. 9 shape)."""
        exp = simulator.simulate(STRONG_TOTAL, 4000, storage="EXP")
        mgr = simulator.simulate(STRONG_TOTAL, 4000, storage="MANAGER")
        otf = simulator.simulate(STRONG_TOTAL, 4000, storage="OTF")
        assert exp.iteration_seconds <= mgr.iteration_seconds + 1e-12
        assert mgr.iteration_seconds <= otf.iteration_seconds + 1e-12

    def test_balanced_faster(self, simulator):
        bal = simulator.simulate(STRONG_TOTAL, 2000, balanced=True)
        unbal = simulator.simulate(STRONG_TOTAL, 2000, balanced=False)
        assert bal.iteration_seconds < unbal.iteration_seconds
        assert bal.gpu_load_uniformity < unbal.gpu_load_uniformity

    def test_deterministic(self, simulator):
        a = simulator.simulate(STRONG_TOTAL, 2000)
        b = simulator.simulate(STRONG_TOTAL, 2000)
        assert a.iteration_seconds == b.iteration_seconds

    def test_validation(self, simulator):
        with pytest.raises(HardwareModelError):
            simulator.simulate(0, 100)
        with pytest.raises(HardwareModelError):
            simulator.simulate(1000, 100, storage="ZIP")


class TestScalingStudy:
    def test_strong_efficiency_decays_to_paper_band(self, simulator):
        """Fig. 11: ~0.7 parallel efficiency at 16x scale-out."""
        study = ScalingStudy(simulator, base_gpus=1000)
        results = study.strong(STRONG_TOTAL, [1000, 16000])
        base_eff = results[0][1]
        largest_eff = results[1][1]
        assert base_eff == pytest.approx(1.0)
        assert 0.55 < largest_eff < 0.9

    def test_weak_efficiency_band(self, simulator):
        """Fig. 12: ~0.89 parallel efficiency at 16,000 GPUs."""
        study = ScalingStudy(simulator, base_gpus=1000)
        results = study.weak(5_124_596, [1000, 16000])
        assert results[0][1] == pytest.approx(1.0)
        assert 0.8 < results[1][1] < 0.97

    def test_weak_efficiency_monotone_decreasing(self, simulator):
        study = ScalingStudy(simulator, base_gpus=1000)
        effs = [e for _, e in study.weak(5_124_596, [1000, 2000, 4000, 8000, 16000])]
        assert all(b <= a + 1e-9 for a, b in zip(effs, effs[1:]))

    def test_strong_shows_residency_bump(self, simulator):
        """Somewhere in the sweep, efficiency exceeds 1 when all tracks
        become resident (the Fig. 11 'increase' observation)."""
        study = ScalingStudy(simulator, base_gpus=1000)
        results = study.strong(STRONG_TOTAL, [1000, 2000, 4000, 8000, 16000])
        effs = [e for _, e in results]
        assert max(effs) > 1.0
        residents = [r.resident_fraction for r, _ in results]
        assert residents[0] < 1.0
        assert residents[-1] == 1.0
