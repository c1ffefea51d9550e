"""Specifications of the paper's multi-GPU testbed.

The evaluation machine (Sec. 5): >4,000 nodes, each with four AMD
Instinct MI60 GPUs (64 CUs, 16 GB) and HDR InfiniBand at 200 Gb/s. No
such hardware is available here, so these frozen dataclasses carry the
figures the paper-scale models read: device memory and throughput
(:mod:`repro.parallel.timeline`, Figs. 9, 11, 12) and the GPU side of the
Sec. 5.1 CPU comparison (:mod:`repro.baselines.openmoc_like`).
"""

from repro.hardware.spec import GPUSpec, NodeSpec, ClusterSpec, MI60, V100, TESTBED_NODE, TESTBED_CLUSTER

__all__ = [
    "GPUSpec",
    "NodeSpec",
    "ClusterSpec",
    "MI60",
    "V100",
    "TESTBED_NODE",
    "TESTBED_CLUSTER",
]
