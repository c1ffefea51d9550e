"""A simulated compute node: CPU host plus several GPUs."""

from __future__ import annotations

from repro.errors import HardwareModelError
from repro.hardware.gpu import SimulatedGPU
from repro.hardware.spec import NodeSpec


class SimulatedNode:
    """One node of the cluster: 4 GPUs and a NUMA CPU host by default."""

    def __init__(self, spec: NodeSpec, node_id: int = 0) -> None:
        self.spec = spec
        self.node_id = int(node_id)
        self.gpus = [
            SimulatedGPU(spec.gpu, gpu_id=self.node_id * spec.gpus_per_node + g)
            for g in range(spec.gpus_per_node)
        ]
        #: Simulated host memory accounting (coarse: one pool).
        self._host_in_use = 0

    def gpu(self, local_index: int) -> SimulatedGPU:
        if not (0 <= local_index < len(self.gpus)):
            raise HardwareModelError(
                f"GPU index {local_index} out of range on node {self.node_id}"
            )
        return self.gpus[local_index]

    def allocate_host(self, size: int) -> None:
        if size < 0:
            raise HardwareModelError("negative host allocation")
        if self._host_in_use + size > self.spec.host_memory_bytes:
            raise HardwareModelError(
                f"node {self.node_id}: host memory exhausted "
                f"({self._host_in_use + size} > {self.spec.host_memory_bytes})"
            )
        self._host_in_use += size

    @property
    def busy_seconds(self) -> float:
        """Node compute time: its slowest GPU (GPUs run concurrently)."""
        return max(g.busy_seconds for g in self.gpus)

    def __repr__(self) -> str:
        return f"SimulatedNode(id={self.node_id}, gpus={len(self.gpus)})"
