"""Ablation — the Manager's resident-memory threshold (Sec. 5.3).

The paper fixes the threshold at 6.144 GB "using a greedy approach, which
is subject to variation depending on the hardware used". This ablation
sweeps the budget from 0 (pure OTF behaviour) to covering the whole
problem (pure EXP behaviour) and measures, on the simulated cluster, how
iteration time interpolates between the two extremes — the trade-off
curve the fixed threshold is a point on.
"""

import pytest

from repro.parallel.timeline import ClusterTransportSimulator

TOTAL_TRACKS = 100e9
GPUS = 1000
BUDGETS_GB = [0.0, 1.0, 2.0, 4.0, 6.144, 10.0, 16.0, 32.0]


def test_ablation_resident_budget(benchmark, reporter):
    def sweep():
        rows = []
        for budget_gb in BUDGETS_GB:
            sim = ClusterTransportSimulator(
                resident_budget_bytes=int(budget_gb * 1e9)
            )
            rep = sim.simulate(TOTAL_TRACKS, GPUS, storage="MANAGER")
            rows.append((budget_gb, rep.resident_fraction, rep.iteration_seconds))
        return rows

    rows = benchmark(sweep)
    reporter.line("Ablation: Manager resident budget (100G tracks, 1000 GPUs)")
    reporter.line("(paper's operating point: 6.144 GB)")
    reporter.line()
    reporter.table(
        ["budget GB", "resident frac", "iteration s"],
        [[f"{b:.3f}", f"{f:.2f}", f"{t:.3f}"] for b, f, t in rows],
        widths=[12, 14, 14],
    )
    times = [t for _, _, t in rows]
    fractions = [f for _, f, _ in rows]
    # Zero budget is the OTF limit (slowest); growing budgets monotonically
    # raise residency and cut time until everything is resident.
    assert fractions[0] == 0.0  # repro: ignore[float-eq] — zero budget residency is 0/total, exact by construction
    assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(times, times[1:]))
    # The paper's 6.144 GB point sits strictly between the extremes here.
    mid = dict((b, t) for b, _, t in rows)[6.144]
    assert times[-1] < mid < times[0]


def test_ablation_regen_ratio(benchmark, reporter):
    """Sensitivity to the fused-kernel regeneration cost: the OTF penalty
    (and therefore the Manager's gain) scales with it."""
    def sweep():
        rows = []
        for ratio in (0.0, 0.3, 1.0, 5.0):
            sim = ClusterTransportSimulator(scaling_regen_ratio=ratio)
            otf = sim.simulate(TOTAL_TRACKS, GPUS, storage="OTF")
            mgr = sim.simulate(TOTAL_TRACKS, GPUS, storage="MANAGER")
            gain = (otf.iteration_seconds - mgr.iteration_seconds) / otf.iteration_seconds
            rows.append((ratio, otf.iteration_seconds, mgr.iteration_seconds, gain))
        return rows

    rows = benchmark(sweep)
    reporter.line("Ablation: regeneration-to-sweep work ratio")
    reporter.line("(paper Sec. 5.3: standalone OTF kernel ~5x; Manager ~30% faster than OTF)")
    reporter.line()
    reporter.table(
        ["regen ratio", "OTF s", "Manager s", "Manager gain"],
        [[r, f"{o:.3f}", f"{m:.3f}", f"{100 * g:.0f}%"] for r, o, m, g in rows],
        widths=[13, 10, 12, 13],
    )
    gains = [g for _, _, _, g in rows]
    assert gains[0] == pytest.approx(0.0, abs=1e-9)  # no regen cost: no gain
    assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))
    # At the paper's standalone 5x ratio the Manager gain reaches the
    # reported ~30% band.
    assert 0.2 < gains[-1] < 0.6
