#!/usr/bin/env python
"""Strong and weak scaling on the simulated cluster (Figs. 11-12).

Replays the paper's scalability campaign — 1000 to 16000 MI60 GPUs, the
same per-GPU track loads — on the deterministic cluster timing model, with
and without the three-level load mapping.

Run:  python examples/scaling_study.py
"""

from repro.parallel.timeline import ClusterTransportSimulator, ScalingStudy

GPU_COUNTS = [1000, 2000, 4000, 8000, 16000]


def print_sweep(title, results, baseline_results):
    print(f"\n=== {title} ===")
    print(f"{'GPUs':>7}{'time ms':>10}{'eff':>8}{'no-bal ms':>11}{'no-bal eff':>12}{'gain':>7}")
    for (rep, eff), (rep_n, eff_n) in zip(results, baseline_results):
        gain = (rep_n.iteration_seconds - rep.iteration_seconds) / rep_n.iteration_seconds
        print(
            f"{rep.num_gpus:>7}{rep.iteration_seconds * 1e3:>10.1f}{eff:>8.3f}"
            f"{rep_n.iteration_seconds * 1e3:>11.1f}{eff_n:>12.3f}{100 * gain:>6.0f}%"
        )


def main() -> None:
    simulator = ClusterTransportSimulator(
        heterogeneity=0.035, cu_imbalance_unbalanced=1.012
    )  # calibrated to the paper's ~12% balancing gain
    study = ScalingStudy(simulator, base_gpus=1000)

    strong_total = 54_581_544 * 1000
    print(f"strong scaling: {strong_total / 1e9:.1f}G tracks total "
          f"({strong_total // 1000:,} per GPU at the 1000-GPU base)")
    balanced = study.strong(strong_total, GPU_COUNTS, balanced=True)
    baseline = study.strong(strong_total, GPU_COUNTS, balanced=False)
    print_sweep("Fig. 11: strong scaling", balanced, baseline)
    print(f"paper: 70.69% efficiency at 16000 GPUs; "
          f"reproduced: {balanced[-1][1] * 100:.1f}%")

    tracks_per_gpu = 5_124_596
    print(f"\nweak scaling: {tracks_per_gpu:,} tracks per GPU "
          f"({tracks_per_gpu * 16000 / 1e9:.1f}G at 16000 GPUs)")
    balanced_w = study.weak(tracks_per_gpu, GPU_COUNTS, balanced=True)
    baseline_w = study.weak(tracks_per_gpu, GPU_COUNTS, balanced=False)
    print_sweep("Fig. 12: weak scaling", balanced_w, baseline_w)
    print(f"paper: 89.38% efficiency at 16000 GPUs; "
          f"reproduced: {balanced_w[-1][1] * 100:.1f}%")

    print("\nnote the Fig. 11 bump: efficiency rises above 1.0 once the whole")
    print("problem fits resident in device memory and OTF regeneration stops.")


if __name__ == "__main__":
    main()
