"""The three-level mapping pipeline over a whole (simulated) cluster.

Chains L1 -> L2 -> L3 for a decomposed workload and reports the load
statistics each level sees, plus the cluster-wide *effective* GPU loads
(a GPU's finish time is its slowest CU's load times the CU count). Each
level can be toggled to reproduce the Fig. 10 ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecompositionError
from repro.geometry.decomposition import CuboidDecomposition
from repro.loadbalance.l1_nodes import L1Mapping, map_subdomains_to_nodes
from repro.loadbalance.l2_gpus import L2Mapping, map_angles_to_gpus
from repro.loadbalance.l3_cus import L3Mapping, map_tracks_to_cus
from repro.loadbalance.metrics import LoadStats, load_uniformity_index


@dataclass
class MappingResult:
    """Everything the Fig. 10 evaluation reads off one mapping run."""

    l1: L1Mapping
    l2_per_node: list[L2Mapping]
    l3_samples: dict[int, L3Mapping]
    #: Nominal per-GPU loads (sum of assigned angle loads).
    gpu_loads: np.ndarray
    #: Effective per-GPU loads after CU-level imbalance (max CU x CUs).
    gpu_effective_loads: np.ndarray
    levels: tuple[bool, bool, bool]

    @property
    def effective_stats(self) -> LoadStats:
        return LoadStats.from_loads(self.gpu_effective_loads)

    @property
    def uniformity_index(self) -> float:
        return load_uniformity_index(self.gpu_effective_loads)


class ThreeLevelMapper:
    """Maps a decomposed workload onto nodes / GPUs / CUs.

    Parameters
    ----------
    gpus_per_node, cus_per_gpu:
        The node shape (4 GPUs and 64 CUs on the paper's testbed).
    num_azim:
        Azimuthal angle count; L2 splits along this axis.
    heterogeneity:
        Log-normal sigma of the synthetic per-track segment-count spread
        used at L3. Reactor cores with fine reflector meshes sit near 0.5
        to 1.0; 0 makes every track identical.
    """

    def __init__(
        self,
        gpus_per_node: int = 4,
        cus_per_gpu: int = 64,
        num_azim: int = 32,
        heterogeneity: float = 0.7,
        tracks_per_gpu_sample: int = 4096,
        seed: int = 20230701,
    ) -> None:
        if gpus_per_node < 1 or cus_per_gpu < 1:
            raise DecompositionError("invalid node shape")
        if num_azim < 4 or num_azim % 4:
            raise DecompositionError("num_azim must be a multiple of 4")
        if heterogeneity < 0.0:
            raise DecompositionError("heterogeneity must be non-negative")
        self.gpus_per_node = gpus_per_node
        self.cus_per_gpu = cus_per_gpu
        self.num_azim = num_azim
        self.heterogeneity = heterogeneity
        self.tracks_per_gpu_sample = tracks_per_gpu_sample
        self.seed = seed

    # ------------------------------------------------------------ internals

    def _angle_fractions(self, rng: np.random.Generator) -> np.ndarray:
        """Workload fraction per stored azimuthal index.

        Track counts vary a few percent across corrected angles; a small
        deterministic jitter models that without a full laydown.
        """
        half = self.num_azim // 2
        base = np.ones(half)
        jitter = 0.05 * rng.standard_normal(half)
        fractions = np.clip(base + jitter, 0.5, 1.5)
        return fractions / fractions.sum()

    def _track_sizes(self, rng: np.random.Generator, total_load: float) -> np.ndarray:
        """Synthetic per-track segment counts summing to ``total_load``.

        Sizes are *spatially correlated* along the laydown order (adjacent
        tracks cross similar geometry — long tracks cluster where chords
        are long and the FSR mesh is fine), modelled as a smooth random
        profile plus log-normal noise. The correlation is what makes the
        block-scheduled baseline imbalanced at the CU level.
        """
        n = self.tracks_per_gpu_sample
        if self.heterogeneity <= 0.0:
            sizes = np.ones(n)
        else:
            # Smooth profile: random low-frequency Fourier modes.
            x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            profile = np.zeros(n)
            for mode in range(1, 4):
                amp = rng.normal(0.0, 1.0) / mode
                phase = rng.uniform(0.0, 2.0 * np.pi)
                profile += amp * np.sin(mode * x + phase)
            noise = rng.lognormal(mean=0.0, sigma=self.heterogeneity * 0.3, size=n)
            sizes = np.exp(self.heterogeneity * profile) * noise
        return sizes * (total_load / sizes.sum())

    # --------------------------------------------------------------- runner

    def run(
        self,
        decomposition: CuboidDecomposition,
        num_nodes: int,
        weights: list[float] | None = None,
        l1: bool = True,
        l2: bool = True,
        l3: bool = True,
        l3_gpu_samples: int = 16,
    ) -> MappingResult:
        """Run the pipeline with the given levels enabled."""
        rng = np.random.default_rng(self.seed)
        l1_mapping = map_subdomains_to_nodes(
            decomposition, num_nodes, weights=weights, balanced=l1
        )
        angle_fractions = self._angle_fractions(rng)
        num_gpus = num_nodes * self.gpus_per_node
        gpu_loads = np.zeros(num_gpus)
        l2_per_node: list[L2Mapping] = []
        for node, fusion in enumerate(l1_mapping.fusion_geometries):
            base = node * self.gpus_per_node
            if l2:
                # Angle decomposition: every GPU sweeps the fused geometry
                # for its share of (complementary-paired) angles.
                angle_loads = fusion.total_weight * angle_fractions
                mapping = map_angles_to_gpus(
                    angle_loads, self.gpus_per_node, balanced=True
                )
                l2_per_node.append(mapping)
                gpu_loads[base : base + self.gpus_per_node] = mapping.gpu_loads
            else:
                # Baseline: whole subdomains dealt to GPUs in linear order
                # (the spatial-decomposition-only layout of OpenMOC) —
                # GPU loads inherit the subdomain heterogeneity.
                member_weights = [s.weight for s in fusion.subdomains]
                loads = np.zeros(self.gpus_per_node)
                for i, w in enumerate(member_weights):
                    loads[(i * self.gpus_per_node) // max(len(member_weights), 1)] += w
                # Fewer subdomains than GPUs: split the largest evenly.
                if len(member_weights) < self.gpus_per_node:
                    loads = np.zeros(self.gpus_per_node)
                    for i, w in enumerate(member_weights):
                        loads[i % self.gpus_per_node] += w
                gpu_loads[base : base + self.gpus_per_node] = loads

        # L3: sample GPUs deterministically, estimate CU-level imbalance,
        # and apply each sampled GPU's slowdown factor to its load class.
        sample_count = min(l3_gpu_samples, num_gpus)
        sample_ids = np.linspace(0, num_gpus - 1, sample_count).astype(np.int64)
        l3_samples: dict[int, L3Mapping] = {}
        slowdowns = np.ones(num_gpus)
        for gid in sample_ids:
            gpu_rng = np.random.default_rng(self.seed + 7919 * (int(gid) + 1))
            sizes = self._track_sizes(gpu_rng, max(gpu_loads[gid], 1e-12))
            mapping = map_tracks_to_cus(sizes, self.cus_per_gpu, balanced=l3)
            l3_samples[int(gid)] = mapping
            mean_cu = mapping.cu_loads.mean()
            slowdowns[gid] = mapping.cu_loads.max() / mean_cu if mean_cu > 0 else 1.0
        # Non-sampled GPUs take the mean sampled slowdown.
        mean_slowdown = slowdowns[sample_ids].mean()
        mask = np.ones(num_gpus, dtype=bool)
        mask[sample_ids] = False
        slowdowns[mask] = mean_slowdown
        effective = gpu_loads * slowdowns
        return MappingResult(
            l1=l1_mapping,
            l2_per_node=l2_per_node,
            l3_samples=l3_samples,
            gpu_loads=gpu_loads,
            gpu_effective_loads=effective,
            levels=(l1, l2, l3),
        )
