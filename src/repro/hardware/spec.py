"""Hardware specifications of the paper's testbed."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareModelError


@dataclass(frozen=True)
class GPUSpec:
    """One GPU model.

    ``work_units_per_second`` calibrates the abstract work units of
    :class:`~repro.perfmodel.computation.ComputationModel` (one unit = one
    segment of source computation) to simulated seconds. The default is
    chosen so a 5-million-track per-GPU workload lands in the paper's
    tens-of-seconds iteration regime; only *ratios* between configurations
    matter for every reproduced figure.
    """

    name: str
    num_cus: int
    memory_bytes: int
    work_units_per_second: float

    def __post_init__(self) -> None:
        if self.num_cus < 1:
            raise HardwareModelError("a GPU needs at least one CU")
        if self.memory_bytes <= 0 or self.work_units_per_second <= 0:
            raise HardwareModelError("memory and throughput must be positive")


@dataclass(frozen=True)
class NodeSpec:
    """One compute node."""

    gpus_per_node: int
    gpu: GPUSpec
    #: Intra-node GPU-GPU DMA bandwidth (bytes/s).
    dma_bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise HardwareModelError("invalid node composition")
        if self.dma_bandwidth_bytes_per_s <= 0:
            raise HardwareModelError("invalid node bandwidth")


@dataclass(frozen=True)
class ClusterSpec:
    """The whole machine."""

    num_nodes: int
    node: NodeSpec
    #: Inter-node network bandwidth (bytes/s) and latency (s).
    network_bandwidth_bytes_per_s: float
    network_latency_s: float

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise HardwareModelError("cluster needs at least one node")
        if self.network_bandwidth_bytes_per_s <= 0:
            raise HardwareModelError("network bandwidth must be positive")

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.node.gpus_per_node

    def with_nodes(self, num_nodes: int) -> "ClusterSpec":
        """Same machine, different node count (the scaling-sweep knob)."""
        return ClusterSpec(
            num_nodes=num_nodes,
            node=self.node,
            network_bandwidth_bytes_per_s=self.network_bandwidth_bytes_per_s,
            network_latency_s=self.network_latency_s,
        )


#: AMD Instinct MI60: 64 CUs, 16 GB HBM2 (paper Sec. 5).
MI60 = GPUSpec(
    name="MI60",
    num_cus=64,
    memory_bytes=16 * 1024**3,
    work_units_per_second=2.0e9,
)

#: NVIDIA V100: the CUDA-side device the hipify-portable kernels also
#: target (paper Sec. 3.2: "the GPU solver can support both NVIDIA and
#: AMD hardware devices"). 80 SMs play the CU role; throughput scaled by
#: the MI60/V100 FP32 ratio.
V100 = GPUSpec(
    name="V100",
    num_cus=80,
    memory_bytes=16 * 1024**3,
    work_units_per_second=2.1e9,
)

#: The paper's node: 4x MI60 beside one 32-core Zen CPU.
TESTBED_NODE = NodeSpec(
    gpus_per_node=4,
    gpu=MI60,
    dma_bandwidth_bytes_per_s=64.0e9,
)

#: The paper's cluster: >4,000 nodes on 200 Gb/s HDR InfiniBand.
TESTBED_CLUSTER = ClusterSpec(
    num_nodes=4000,
    node=TESTBED_NODE,
    network_bandwidth_bytes_per_s=200.0e9 / 8.0,
    network_latency_s=2.0e-6,
)
