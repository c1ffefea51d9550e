"""Tests for hardware specs, including the CUDA-platform analogue.

Paper Sec. 3.2: kernels are CUDA with hipify-converted ROCm variants, so
"the GPU solver can support both NVIDIA and AMD hardware devices". The
timing model mirrors that portability: every cluster spec is
parameterised by :class:`GPUSpec`, and swapping MI60 for V100 must be a
pure configuration change.
"""

import pytest

from repro.errors import HardwareModelError
from repro.hardware import (
    MI60,
    TESTBED_CLUSTER,
    V100,
    ClusterSpec,
    NodeSpec,
)


class TestDeviceSpecs:
    def test_mi60_is_the_paper_device(self):
        assert MI60.num_cus == 64
        assert MI60.memory_bytes == 16 * 1024**3

    def test_v100_is_a_valid_alternative(self):
        assert V100.num_cus == 80
        assert V100.memory_bytes == 16 * 1024**3

    def test_cluster_builds_with_either_device(self):
        for spec in (MI60, V100):
            node = NodeSpec(gpus_per_node=4, gpu=spec, dma_bandwidth_bytes_per_s=64e9)
            cluster = ClusterSpec(
                num_nodes=2, node=node,
                network_bandwidth_bytes_per_s=25e9, network_latency_s=2e-6,
            )
            assert cluster.num_gpus == 8
            assert cluster.node.gpu is spec

    def test_scaling_simulation_platform_swap(self):
        """The timing simulator accepts a V100 cluster unchanged; more CUs
        and slightly higher throughput shift absolute times, not shapes."""
        from repro.parallel.timeline import ClusterTransportSimulator

        v100_node = NodeSpec(gpus_per_node=4, gpu=V100, dma_bandwidth_bytes_per_s=64e9)
        v100_cluster = ClusterSpec(
            num_nodes=4000, node=v100_node,
            network_bandwidth_bytes_per_s=25e9, network_latency_s=2e-6,
        )
        mi60 = ClusterTransportSimulator().simulate(1e10, 1000)
        v100 = ClusterTransportSimulator(cluster=v100_cluster).simulate(1e10, 1000)
        ratio = mi60.compute_seconds / v100.compute_seconds
        assert ratio == pytest.approx(
            V100.work_units_per_second / MI60.work_units_per_second, rel=0.02
        )


class TestClusterSpecHelpers:
    def test_with_nodes(self):
        small = TESTBED_CLUSTER.with_nodes(10)
        assert small.num_nodes == 10
        assert small.num_gpus == 40
        assert small.node is TESTBED_CLUSTER.node

    def test_invalid_cluster(self):
        with pytest.raises(HardwareModelError):
            ClusterSpec(num_nodes=0, node=TESTBED_CLUSTER.node,
                        network_bandwidth_bytes_per_s=1e9, network_latency_s=0.0)

    def test_gpu_spec_immutable(self):
        with pytest.raises(Exception):
            MI60.num_cus = 128  # frozen dataclass
