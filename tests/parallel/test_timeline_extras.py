"""Additional timeline-simulator coverage: weak overhead, imbalance knobs."""

import numpy as np
import pytest

from repro.parallel.timeline import ClusterTransportSimulator


class TestWeakScalingOverhead:
    def test_weak_flag_inflates_segments(self):
        sim = ClusterTransportSimulator(weak_overhead_coeff=0.05)
        plain = sim.simulate(1e10, 4000, weak_scaling=False)
        weak = sim.simulate(1e10, 4000, weak_scaling=True)
        assert weak.segments_per_gpu_mean > plain.segments_per_gpu_mean

    def test_overhead_grows_with_scale(self):
        sim = ClusterTransportSimulator(weak_overhead_coeff=0.05)
        small = sim.simulate(1e9 * 1, 1000, weak_scaling=True)
        large = sim.simulate(1e9 * 16, 16000, weak_scaling=True)
        ratio_small = small.segments_per_gpu_mean / small.tracks_per_gpu_mean
        ratio_large = large.segments_per_gpu_mean / large.tracks_per_gpu_mean
        assert ratio_large > ratio_small

    def test_zero_coefficient_no_overhead(self):
        sim = ClusterTransportSimulator(weak_overhead_coeff=0.0)
        plain = sim.simulate(1e10, 4000, weak_scaling=False)
        weak = sim.simulate(1e10, 4000, weak_scaling=True)
        assert weak.segments_per_gpu_mean == pytest.approx(plain.segments_per_gpu_mean)


class TestImbalanceKnobs:
    def test_heterogeneity_widens_gap(self):
        gaps = []
        for het in (0.05, 0.6):
            sim = ClusterTransportSimulator(heterogeneity=het)
            bal = sim.simulate(1e10, 2000, balanced=True)
            unbal = sim.simulate(1e10, 2000, balanced=False)
            gaps.append(unbal.iteration_seconds / bal.iteration_seconds)
        assert gaps[1] > gaps[0]

    def test_zero_heterogeneity_near_equal(self):
        """With uniform weights AND a subdomain count divisible by the
        GPU count, the baseline's whole-subdomain dealing is as balanced
        as the angle split (count granularity is the only residual)."""
        sim = ClusterTransportSimulator(
            heterogeneity=0.0, cu_imbalance_unbalanced=1.0,
            cu_imbalance_balanced=1.0, subdomains_per_node=8,
        )
        bal = sim.simulate(1e10, 2000, balanced=True)
        unbal = sim.simulate(1e10, 2000, balanced=False)
        assert unbal.iteration_seconds == pytest.approx(
            bal.iteration_seconds, rel=0.05
        )

    def test_count_granularity_penalises_baseline(self):
        """10 subdomains per node cannot split evenly over 4 GPUs: the
        baseline inherits a ~20% count-granularity imbalance even with
        perfectly uniform weights — one reason the paper's L2 angle split
        wins even on homogeneous workloads."""
        sim = ClusterTransportSimulator(
            heterogeneity=0.0, cu_imbalance_unbalanced=1.0,
            cu_imbalance_balanced=1.0, subdomains_per_node=10,
        )
        unbal = sim.simulate(1e10, 2000, balanced=False)
        assert unbal.gpu_load_uniformity == pytest.approx(1.2, rel=0.05)

    def test_cu_imbalance_scales_compute(self):
        base = ClusterTransportSimulator(cu_imbalance_balanced=1.0)
        slow = ClusterTransportSimulator(cu_imbalance_balanced=1.5)
        t_base = base.simulate(1e10, 2000).compute_seconds
        t_slow = slow.simulate(1e10, 2000).compute_seconds
        assert t_slow == pytest.approx(1.5 * t_base, rel=1e-9)


class TestMemoryAccounting:
    def test_manager_memory_bounded_by_budget_plus_overheads(self):
        sim = ClusterTransportSimulator(resident_budget_bytes=int(2e9))
        rep = sim.simulate(100e9, 1000, storage="MANAGER")
        # budget + flux + other overhead headroom
        assert rep.memory_per_gpu_bytes < 2e9 + 8e9
        assert rep.resident_fraction < 1.0

    def test_otf_memory_far_below_exp(self):
        sim = ClusterTransportSimulator()
        otf = sim.simulate(1e11, 16000, storage="OTF")
        exp = sim.simulate(1e11, 16000, storage="EXP")
        # OTF stores fluxes only; EXP adds the full segment inventory.
        assert otf.memory_per_gpu_bytes < 0.5 * exp.memory_per_gpu_bytes

    def test_uniformity_reported(self):
        sim = ClusterTransportSimulator()
        rep = sim.simulate(1e10, 2000, balanced=False)
        assert rep.gpu_load_uniformity > 1.0
