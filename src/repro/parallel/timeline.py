"""Paper-scale execution timeline simulation (Figs. 9, 11, 12).

Simulates transport iterations of a decomposed 3D problem on the modelled
cluster, at the paper's scales (10^10-10^11 tracks, up to 16,000 GPUs),
driven entirely by the Sec. 3.3 performance model:

* per-GPU workload from the track/segment models plus the load-mapping
  imbalance (balanced vs baseline);
* storage strategy effects (Eq. 6 + the 5x OTF regeneration kernel):
  EXP is fastest but OOMs past device memory, OTF pays regeneration,
  Manager regenerates only the non-resident fraction;
* per-iteration communication (Eq. 7) across DMA/InfiniBand links.

The global iteration time of the bulk-synchronous scheme is
``max_gpu(compute) + max_gpu(comm)``; scaling efficiencies are ratios of
those times, which is why the uncalibrated absolute throughput constant
does not affect any reproduced curve shape.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_RESIDENT_MEMORY_BYTES
from repro.errors import HardwareModelError
from repro.hardware.spec import ClusterSpec, TESTBED_CLUSTER
from repro.perfmodel.communication import communication_bytes
from repro.perfmodel.computation import ComputationModel
from repro.trackmgmt.strategy import BYTES_PER_SEGMENT


def lpt_assign(weights: np.ndarray, num_parts: int) -> np.ndarray:
    """Longest-processing-time assignment; returns per-part loads.

    Heap-based: O(n log p), usable at the 40,000-subdomain scale of the
    largest runs.
    """
    if num_parts < 1:
        raise HardwareModelError("need at least one part")
    heap = [(0.0, p) for p in range(num_parts)]
    heapq.heapify(heap)
    loads = np.zeros(num_parts)
    for w in np.sort(weights)[::-1]:
        load, part = heapq.heappop(heap)
        load += float(w)
        loads[part] = load
        heapq.heappush(heap, (load, part))
    return loads


def block_assign(weights: np.ndarray, num_parts: int) -> np.ndarray:
    """Contiguous equal-count blocks (the no-balance baseline)."""
    if num_parts < 1:
        raise HardwareModelError("need at least one part")
    loads = np.zeros(num_parts)
    n = weights.size
    bounds = (np.arange(num_parts + 1) * n) // num_parts
    for p in range(num_parts):
        loads[p] = weights[bounds[p] : bounds[p + 1]].sum()
    return loads


@dataclass
class SimulationReport:
    """One simulated configuration's timing and memory outcome."""

    num_gpus: int
    total_tracks: int
    tracks_per_gpu_mean: float
    segments_per_gpu_mean: float
    storage: str
    balanced: bool
    #: True when EXP could not fit its segments on a 16 GB device.
    out_of_memory: bool
    resident_fraction: float
    memory_per_gpu_bytes: float
    compute_seconds: float
    comm_seconds: float
    iteration_seconds: float
    gpu_load_uniformity: float


class ClusterTransportSimulator:
    """Simulates decomposed transport iterations on the modelled cluster."""

    def __init__(
        self,
        cluster: ClusterSpec = TESTBED_CLUSTER,
        computation: ComputationModel | None = None,
        num_groups: int = 7,
        segments_per_track: float = 18.3,
        subdomains_per_node: int = 10,
        heterogeneity: float = 0.6,
        resident_budget_bytes: int = DEFAULT_RESIDENT_MEMORY_BYTES,
        scaling_regen_ratio: float = 0.3,
        cu_imbalance_unbalanced: float = 1.25,
        cu_imbalance_balanced: float = 1.02,
        weak_overhead_coeff: float = 0.035,
        sync_overhead_base_s: float = 3.0e-3,
        sync_overhead_log_coeff_s: float = 1.0e-3,
        seed: int = 20231112,
    ) -> None:
        self.cluster = cluster
        self.computation = computation or ComputationModel()
        self.num_groups = num_groups
        #: Calibrated to the paper's headline counts: ~10^12 segments over
        #: 54.58e9 tracks in the strong-scaling configuration.
        self.segments_per_track = float(segments_per_track)
        self.subdomains_per_node = int(subdomains_per_node)
        self.heterogeneity = float(heterogeneity)
        self.resident_budget_bytes = int(resident_budget_bytes)
        #: Effective extra work per *regenerated* segment in the fused
        #: raytrace+source kernel relative to sweeping a resident one.
        #: Lower than the standalone OTF kernel's 5x (Sec. 5.3): fusing
        #: amortises most of the regeneration streaming (Sec. 4.1).
        self.scaling_regen_ratio = float(scaling_regen_ratio)
        self.cu_imbalance_unbalanced = float(cu_imbalance_unbalanced)
        self.cu_imbalance_balanced = float(cu_imbalance_balanced)
        #: Weak-scaling overhead: extra segments per decomposition grid
        #: refinement (Sec. 5.5: "spatial decomposition ... generates
        #: additional grids and thereby contributes to an increase in
        #: computational complexity").
        self.weak_overhead_coeff = float(weak_overhead_coeff)
        #: Per-iteration synchronisation overhead: kernel launches plus a
        #: term growing with the domain count (more neighbours, more
        #: messages, longer reduction trees).
        self.sync_overhead_base_s = float(sync_overhead_base_s)
        self.sync_overhead_log_coeff_s = float(sync_overhead_log_coeff_s)
        self.seed = int(seed)

    # ----------------------------------------------------------- internals

    def _subdomain_weights(self, num_subdomains: int, total_tracks: float) -> np.ndarray:
        rng = np.random.default_rng(self.seed)
        if self.heterogeneity <= 0.0:
            w = np.ones(num_subdomains)
        else:
            # Smooth spatial field + noise: reactor heterogeneity (fine
            # reflector meshes vs coarse core meshes, Sec. 2.2).
            x = np.linspace(0.0, 2.0 * math.pi, num_subdomains, endpoint=False)
            profile = np.zeros(num_subdomains)
            for mode in range(1, 4):
                profile += (rng.normal(0.0, 1.0) / mode) * np.sin(mode * x + rng.uniform(0, 2 * math.pi))
            noise = rng.lognormal(0.0, self.heterogeneity * 0.4, num_subdomains)
            w = np.exp(self.heterogeneity * profile) * noise
        return w * (total_tracks / w.sum())

    def _gpu_loads(self, total_tracks: float, num_gpus: int, balanced: bool) -> np.ndarray:
        """Per-GPU track loads after the (toggleable) L1+L2 mapping."""
        gpus_per_node = self.cluster.node.gpus_per_node
        num_nodes = max(1, num_gpus // gpus_per_node)
        num_subdomains = self.subdomains_per_node * num_nodes
        weights = self._subdomain_weights(num_subdomains, total_tracks)
        if balanced:
            node_loads = lpt_assign(weights, num_nodes)
            # L2: angle split shares each node's fused load nearly evenly.
            rng = np.random.default_rng(self.seed + 1)
            residual = 1.0 + 0.01 * rng.standard_normal((num_nodes, gpus_per_node))
            gpu = (node_loads[:, None] / gpus_per_node) * np.clip(residual, 0.9, 1.1)
        else:
            node_loads = block_assign(weights, num_nodes)
            # Baseline: whole subdomains dealt per GPU; per-GPU share
            # inherits subdomain variance within the node block.
            gpu = np.empty((num_nodes, gpus_per_node))
            bounds = (np.arange(num_nodes + 1) * num_subdomains) // num_nodes
            for n in range(num_nodes):
                members = weights[bounds[n] : bounds[n + 1]]
                gpu[n] = block_assign(members, gpus_per_node)
        return gpu.reshape(-1)[:num_gpus]

    # -------------------------------------------------------------- runner

    def simulate(
        self,
        total_tracks: float,
        num_gpus: int,
        storage: str = "MANAGER",
        balanced: bool = True,
        weak_scaling: bool = False,
    ) -> SimulationReport:
        """Simulate one configuration and report per-iteration timing."""
        if total_tracks <= 0 or num_gpus < 1:
            raise HardwareModelError("invalid workload/cluster size")
        storage = storage.upper()
        if storage not in ("EXP", "OTF", "MANAGER"):
            raise HardwareModelError(f"unknown storage strategy {storage!r}")
        gpu_spec = self.cluster.node.gpu
        gpu_tracks = self._gpu_loads(total_tracks, num_gpus, balanced)
        seg_ratio = self.segments_per_track
        if weak_scaling:
            # Decomposition overhead grows with the domain-grid refinement.
            gpus_per_node = self.cluster.node.gpus_per_node
            grid = (self.subdomains_per_node * num_gpus / gpus_per_node) ** (1.0 / 3.0)
            seg_ratio = seg_ratio * (1.0 + self.weak_overhead_coeff * math.log2(max(grid, 1.0)))
        gpu_segments = gpu_tracks * seg_ratio

        # Memory & resident fraction per GPU (use the most loaded GPU —
        # it both OOMs first and bounds the iteration).
        seg_bytes = gpu_segments * BYTES_PER_SEGMENT
        flux_bytes = gpu_tracks * 2 * self.num_groups * 4
        other_bytes = 256e6  # materials, FSR data, 2D tracks
        mem_exp = seg_bytes + flux_bytes + other_bytes
        out_of_memory = False
        if storage == "EXP":
            resident_fraction = 1.0
            if mem_exp.max() > gpu_spec.memory_bytes:
                out_of_memory = True
            memory = mem_exp
        elif storage == "OTF":
            resident_fraction = 0.0
            memory = flux_bytes + other_bytes
        else:
            budget = min(self.resident_budget_bytes, gpu_spec.memory_bytes)
            resident_fraction = float(
                np.minimum(1.0, budget / np.maximum(seg_bytes, 1.0)).mean()
            )
            memory = np.minimum(seg_bytes, budget) + flux_bytes + other_bytes

        # Compute time: sweep over all segments + regeneration of the
        # temporary fraction (fused kernel), CU imbalance as a multiplier.
        temp_fraction = 1.0 - resident_fraction
        cu_factor = self.cu_imbalance_balanced if balanced else self.cu_imbalance_unbalanced
        work = self.computation.source_work_per_segment * gpu_segments * (
            1.0 + self.scaling_regen_ratio * temp_fraction
        )
        compute_s = work * cu_factor / gpu_spec.work_units_per_second

        # Communication: Eq. 7 over boundary tracks. The fraction of a
        # GPU's tracks with an interface end scales with the subdomain
        # surface-to-volume ratio ~ G^(1/3) for strong scaling on a fixed
        # geometry (smaller domains, relatively more boundary).
        gpus_per_node = self.cluster.node.gpus_per_node
        num_domains = self.subdomains_per_node * max(1, num_gpus // gpus_per_node)
        boundary_fraction = min(1.0, 0.05 * num_domains ** (1.0 / 3.0))
        comm_bytes = communication_bytes(1, self.num_groups) * gpu_tracks * boundary_fraction
        # Three of four x-neighbours sit on the same node (DMA); the rest
        # cross InfiniBand. Weight the per-byte cost accordingly.
        dma = self.cluster.node.dma_bandwidth_bytes_per_s
        ib = self.cluster.network_bandwidth_bytes_per_s
        intra = 0.25
        per_byte = intra / dma + (1.0 - intra) / ib
        sync_s = self.sync_overhead_base_s + self.sync_overhead_log_coeff_s * math.log2(
            max(num_domains, 2)
        )
        comm_s = comm_bytes * per_byte + self.cluster.network_latency_s * 6.0 + sync_s

        compute_max = float(np.max(compute_s))
        comm_max = float(np.max(comm_s))
        mean_load = gpu_tracks.mean()
        return SimulationReport(
            num_gpus=num_gpus,
            total_tracks=int(total_tracks),
            tracks_per_gpu_mean=float(mean_load),
            segments_per_gpu_mean=float(gpu_segments.mean()),
            storage=storage,
            balanced=balanced,
            out_of_memory=out_of_memory,
            resident_fraction=resident_fraction,
            memory_per_gpu_bytes=float(np.max(memory)),
            compute_seconds=compute_max,
            comm_seconds=comm_max,
            iteration_seconds=compute_max + comm_max,
            gpu_load_uniformity=float(gpu_tracks.max() / mean_load),
        )


@dataclass
class ScalingStudy:
    """Strong/weak scaling sweeps over GPU counts (Figs. 11-12)."""

    simulator: ClusterTransportSimulator
    base_gpus: int = 1000

    def strong(
        self,
        total_tracks: float,
        gpu_counts: list[int],
        storage: str = "MANAGER",
        balanced: bool = True,
    ) -> list[tuple[SimulationReport, float]]:
        """Fixed total problem; returns (report, parallel efficiency)."""
        base = self.simulator.simulate(total_tracks, self.base_gpus, storage, balanced)
        out = []
        for g in gpu_counts:
            rep = self.simulator.simulate(total_tracks, g, storage, balanced)
            eff = (base.iteration_seconds * self.base_gpus) / (
                rep.iteration_seconds * g
            )
            out.append((rep, eff))
        return out

    def weak(
        self,
        tracks_per_gpu: float,
        gpu_counts: list[int],
        storage: str = "MANAGER",
        balanced: bool = True,
    ) -> list[tuple[SimulationReport, float]]:
        """Fixed per-GPU problem; returns (report, parallel efficiency)."""
        base = self.simulator.simulate(
            tracks_per_gpu * self.base_gpus, self.base_gpus, storage, balanced,
            weak_scaling=True,
        )
        out = []
        for g in gpu_counts:
            rep = self.simulator.simulate(
                tracks_per_gpu * g, g, storage, balanced, weak_scaling=True
            )
            eff = base.iteration_seconds / rep.iteration_seconds
            out.append((rep, eff))
        return out
