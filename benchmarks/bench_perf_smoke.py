"""Perf-smoke lane: cheap regression gates on the committed BENCH baselines.

Runs the two quick benchmark entry points (``bench_tracking.py --quick``
and ``bench_sweep_kernel.py --quick``) in fresh subprocesses and fails if
a *speedup ratio* regressed more than :data:`TOLERANCE` against the quick
case committed in ``BENCH_tracking.json`` / ``BENCH_sweep.json``.

Ratios, never absolute seconds: wall-clock on a shared or virtualized host
swings by integer factors with heap and cache state, but both sides of
each ratio ride the same machine state, so the quotient is stable. The
committed baselines are read *before* the quick runs rewrite the JSON.

Select with ``-m perf``::

    pytest benchmarks/bench_perf_smoke.py -m perf
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.observability.exporters import parse_record, read_record

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"

#: Maximum tolerated fractional drop of a speedup ratio vs its baseline.
TOLERANCE = 0.25


def _baseline(bench_json: str, case: str) -> dict:
    path = RESULTS_DIR / bench_json
    if not path.exists():
        pytest.skip(f"no committed baseline {bench_json}; run the quick bench first")
    data = read_record(path)
    record = data.get("cases", {}).get(case)
    if record is None:
        pytest.skip(f"baseline {bench_json} has no '{case}' case yet")
    return record


def _run_quick(script: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / script), "--quick", "--json"],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{script} --quick failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return parse_record(proc.stdout)


def _check(name: str, measured: float, baseline: float) -> None:
    floor = baseline * (1.0 - TOLERANCE)
    assert measured >= floor, (
        f"{name} regressed: {measured:.2f}x vs baseline {baseline:.2f}x "
        f"(floor {floor:.2f}x at {TOLERANCE:.0%} tolerance)"
    )


@pytest.mark.perf
def test_tracking_quick_ratios_hold():
    baseline = _baseline("BENCH_tracking.json", "quick")["ratios"]
    record = _run_quick("bench_tracking.py")
    assert record["segments_identical"], "quick tracking runs produced different segments"
    _check("tracking cold_speedup", record["ratios"]["cold_speedup"], baseline["cold_speedup"])
    _check("tracking warm_speedup", record["ratios"]["warm_speedup"], baseline["warm_speedup"])


@pytest.mark.perf
def test_engine_quick_ratio_holds():
    """The mp engine's relative scaling must not regress.

    On a single-core host every worker count serializes onto one CPU, so
    the measured ratios reflect scheduler noise, not the engine — the gate
    only runs with 2+ cores. The bitwise-identity flags are checked
    unconditionally: they must hold on any machine.
    """
    baseline = _baseline("BENCH_engine.json", "quick")
    record = _run_quick("bench_engine_scaling.py")
    assert record["bitwise_identical"], "engines disagreed on k-eff"
    assert record["comm_identical"], "engines disagreed on traffic totals"
    cpus = os.cpu_count() or 1
    if cpus < 2:
        pytest.skip(f"{cpus} cpu(s): mp scaling ratios are not meaningful")
    for key in ("speedup_2w", "speedup_4w", "async_speedup_2w", "async_speedup_4w"):
        _check(f"engine {key}", record["ratios"][key], baseline["ratios"][key])


@pytest.mark.perf
def test_sweep_quick_ratio_holds():
    base_rows = _baseline("BENCH_sweep.json", "pin-cell-2d-quick")["backends"]
    base_numpy = next(r for r in base_rows if r["backend"] == "numpy")
    record = _run_quick("bench_sweep_kernel.py")
    numpy_row = next(r for r in record["backends"] if r["backend"] == "numpy")
    # The kernel's phase split, named as the run report names it, so a
    # regression of one phase shows in the job log (run with -s).
    for phase, seconds in numpy_row["kernel_phases"].items():
        share = seconds / numpy_row["sweep_seconds"]
        print(f"transport_solving/sweep/{phase}: {seconds * 1e3:.3f} ms ({share:.0%})")
    _check(
        "sweep numpy speedup",
        numpy_row["speedup_vs_reference"],
        base_numpy["speedup_vs_reference"],
    )


@pytest.mark.perf
def test_cmfd_quick_iteration_ratio_holds():
    """CMFD must keep saving at least 3x the transport sweeps.

    Sweep counts are bitwise deterministic, so unlike the timing gates
    this one needs no tolerance band: the quick profiles are re-solved
    and every iteration ratio is held to the committed baseline's floor
    and to the absolute 3x tentpole floor. A regression here means the
    acceleration itself degraded, not that the host was noisy.
    """
    baseline = _baseline("BENCH_cmfd.json", "quick")["profiles"]
    record = _run_quick("bench_cmfd_convergence.py")
    for name, profile in record["profiles"].items():
        ratio = profile["iteration_ratio"]
        assert ratio >= 3.0, (
            f"{name}: CMFD saved only {ratio:.2f}x sweeps "
            f"({profile['iterations']['off']} -> {profile['iterations']['on']})"
        )
        base = baseline.get(name)
        if base is not None:
            assert profile["iterations"] == base["iterations"], (
                f"{name}: sweep counts moved from the committed baseline "
                f"{base['iterations']} to {profile['iterations']} — "
                f"deterministic counts only change when the numerics change"
            )
        assert profile["keff_delta"] <= 5.0e-6, (
            f"{name}: accelerated k-eff drifted {profile['keff_delta']:.2e}"
        )
