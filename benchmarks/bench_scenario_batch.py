"""Scenario-batch throughput benchmark (the BENCH_scenario record).

Runs one multi-state batch twice — through the widened scenario-axis
kernel and through the per-state sequential fallback — over the SAME
shared track laydown, and records the wall-clock ratio. Both modes run a
fixed iteration budget (tolerances pinned far below reach), so the two
measurements perform identical transport work per state and the ratio
is a clean measure of what the state axis amortises: per-sweep python
overhead, source gathers and tally reductions that the fallback pays
once per state.

The gated pair is measured with this process pinned to ONE CPU. A batch
fans its states out over the CPUs it may run on, in both modes, so at
full affinity the ratio would compare two fan-outs — cores, not the
state axis; at one CPU each mode is a single inline share. The same
profile at full affinity is recorded beside it, ungated, as absolute
seconds (``seconds_all_cpus``), and the record carries the host it was
taken on (``host``, with the CPUs this process may run on).

Before timing counts, the batched states are checked bitwise-equal
(k-eff through ``float.hex``) to the sequential oracle — a fast batch
that diverged from the fallback would be a correctness bug wearing a
speedup.

Profiles (all c5g7-mini, numpy backend, coarse tracking so the python
overhead the batch removes is a visible share of the sweep):

- ``c5g7-mini-4s``  — 4 states x 400 iterations (quick; the CI gate:
  batched wall-clock at most 0.75x the sequential fallback);
- ``c5g7-mini-16s`` — 16 states x 200 iterations (full only; the
  headline floor: at least 1.8x batched-vs-serial speedup).

The gates divide by the *serial* path, so they move whenever the
single-state kernel does: the fused lockstep kernel cut the serial side of
``c5g7-mini-4s`` from 0.84 s to 0.58-0.66 s while the batched side stayed at
0.32-0.39 s (this profile is per-call-overhead bound), which reads as
0.44-0.46 -> 0.52-0.57. The record therefore keeps both absolute times
(``seconds.batched`` / ``seconds.serial``) beside the ratio, and the gates
are set ~25-30 % above the re-measured fractions: batching must stay a win.

Results merge into ``benchmarks/results/BENCH_scenario.json``. Running
the module directly with ``--quick`` measures the 4-state profile and
is the entry point used by the scenario-smoke lane.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import time
from pathlib import Path

from repro.observability.exporters import dump_record, merge_benchmark_record
from repro.observability.manifest import host_info

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_scenario.json"

#: CI gate for the quick profile: the batched solve of a 4-state batch
#: must take at most this fraction of the sequential fallback's wall
#: clock (a 0.75 fraction is a 1.33x speedup; measured 0.52-0.57).
MAX_BATCHED_FRACTION = 0.75

#: Headline floor for the full profile: batching 16 states must come
#: close to halving the wall clock against one-state-at-a-time solves
#: (measured 2.2-2.7x).
MIN_FULL_SPEEDUP = 1.8

#: Timing repetitions per mode; the best (minimum) wall clock wins, so
#: a single scheduler hiccup cannot fail a deterministic workload.
REPEATS = 3

CASES = {
    "quick": ("c5g7-mini-4s",),
    "full": ("c5g7-mini-4s", "c5g7-mini-16s"),
}

#: name -> (num_states, iterations, gate) where gate is the maximum
#: allowed batched/serial wall-clock fraction for that profile.
PROFILES = {
    "c5g7-mini-4s": (4, 400, MAX_BATCHED_FRACTION),
    "c5g7-mini-16s": (16, 200, 1.0 / MIN_FULL_SPEEDUP),
}


def _batch_config(num_states: int, iterations: int):
    """A c5g7-mini batch: the nominal state plus fission-scaled branches
    (a distinct factor per state, so every state is a real perturbation
    with its own cross sections and its own expf table slice)."""
    from repro.io.config import config_from_dict

    scenarios = [{"name": "nominal", "perturbations": []}]
    for i in range(1, num_states):
        scenarios.append(
            {
                "name": f"fission-{i}",
                "perturbations": [
                    {
                        "kind": "scale_xs",
                        "material": "UO2",
                        "reaction": "fission",
                        "factor": 1.0 - 0.001 * i,
                    }
                ],
            }
        )
    return config_from_dict(
        {
            "geometry": "c5g7-mini",
            "tracking": {"num_azim": 4, "azim_spacing": 1.0, "num_polar": 2},
            "solver": {
                # Unreachable tolerances pin the iteration budget: both
                # modes sweep exactly `iterations` times per state.
                "max_iterations": iterations,
                "keff_tolerance": 1e-14,
                "source_tolerance": 1e-14,
                "sweep_backend": "numpy",
            },
            "scenarios": scenarios,
        }
    )


# ---------------------------------------------------------------------------
# Record assembly.
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _one_cpu():
    """Pin this process to one of its CPUs (a batch then runs as a single
    inline share); the mask is restored on exit."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _time_modes(config) -> tuple[dict, dict]:
    """Best-of-``REPEATS`` wall clock and the last result, per mode."""
    from repro.scenario import run_scenario_batch

    runs = {}
    results = {}
    for key, mode in (("batched", "batched"), ("serial", "sequential")):
        best = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            batch = run_scenario_batch(config, mode=mode)
            seconds = time.perf_counter() - t0
            best = seconds if best is None else min(best, seconds)
            results[key] = batch
        runs[key] = round(best, 3)
    return runs, results


def measure_profile(name: str) -> dict:
    """One profile: the batched kernel against the sequential oracle."""
    num_states, iterations, max_fraction = PROFILES[name]
    config = _batch_config(num_states, iterations)
    with _one_cpu():
        runs, results = _time_modes(config)
    all_cpus, _ = _time_modes(config)
    for batched, serial in zip(results["batched"].states, results["serial"].states):
        if float(batched.keff).hex() != float(serial.keff).hex():
            raise RuntimeError(
                f"{name}: state {batched.scenario.name!r} diverged from the "
                f"sequential oracle ({batched.keff!r} != {serial.keff!r})"
            )
    assert results["batched"].num_sweeps == iterations
    return {
        "states": num_states,
        "iterations": iterations,
        "seconds": runs,
        "seconds_all_cpus": all_cpus,
        "speedup": runs["serial"] / max(runs["batched"], 1e-12),
        "batched_fraction": runs["batched"] / max(runs["serial"], 1e-12),
        "max_fraction": max_fraction,
        "keff_nominal": results["batched"].states[0].keff,
    }


def run_case(case: str) -> dict:
    profiles = {name: measure_profile(name) for name in CASES[case]}
    record = {
        "case": case,
        "host": {**host_info(), "usable_cpus": len(os.sched_getaffinity(0))},
        "profiles": profiles,
        "ratios": {
            "min_speedup": min(p["speedup"] for p in profiles.values()),
        },
    }
    merge_benchmark_record(BENCH_JSON, record, benchmark="scenario")
    return record


def _report(reporter, record: dict) -> None:
    reporter.line(f"case: {record['case']}")
    reporter.table(
        ["profile", "states", "iters", "batched", "serial", "speedup", "gate"],
        [
            [
                name,
                p["states"],
                p["iterations"],
                f"{p['seconds']['batched']:.2f}s",
                f"{p['seconds']['serial']:.2f}s",
                f"{p['speedup']:.2f}x",
                f"<={p['max_fraction']:.2f}",
            ]
            for name, p in record["profiles"].items()
        ],
        widths=[15, 7, 6, 9, 9, 8, 7],
    )
    reporter.line(
        f"min speedup: {record['ratios']['min_speedup']:.2f}x "
        f"(quick gate {1.0 / MAX_BATCHED_FRACTION:.2f}x, "
        f"full floor {MIN_FULL_SPEEDUP:.1f}x)"
    )


def check_record(record: dict) -> None:
    """The acceptance assertions shared by the bench and the smoke lane."""
    for name, profile in record["profiles"].items():
        fraction = profile["batched_fraction"]
        assert fraction <= profile["max_fraction"], (
            f"{name}: batched took {fraction:.2f}x the serial wall clock "
            f"({profile['seconds']['batched']:.2f}s vs "
            f"{profile['seconds']['serial']:.2f}s, "
            f"gate {profile['max_fraction']:.2f})"
        )


# ---------------------------------------------------------------------------
# Pytest entry points.
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # direct invocation needs no pytest
    pytest = None


if pytest is not None:

    @pytest.mark.slow
    def test_scenario_batch_full(reporter):
        """Full configuration: the 16-state headline speedup floor."""
        record = run_case("full")
        _report(reporter, record)
        check_record(record)

    def test_scenario_batch_quick(reporter):
        record = run_case("quick")
        _report(reporter, record)
        check_record(record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="measure the quick profile only"
    )
    parser.add_argument(
        "--json", action="store_true", help="print the case record as JSON"
    )
    args = parser.parse_args(argv)
    record = run_case("quick" if args.quick else "full")
    if args.json:
        print(dump_record(record, indent=2))
    else:
        for name, profile in record["profiles"].items():
            print(
                f"{name}: {profile['states']} states, "
                f"{profile['seconds']['batched']:.2f}s batched vs "
                f"{profile['seconds']['serial']:.2f}s serial on one CPU "
                f"({profile['speedup']:.2f}x); "
                f"{profile['seconds_all_cpus']['batched']:.2f}s vs "
                f"{profile['seconds_all_cpus']['serial']:.2f}s on "
                f"{record['host']['usable_cpus']}"
            )
    check_record(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
