"""Multiprocess-engine scaling benchmark (the BENCH_engine record).

Runs the coarse C5G7 3D core, z-decomposed into 4 slabs, through **both**
process engines — the barrier-phased ``mp`` scheme and the mailbox/epoch
``mp-async`` scheme — at 1, 2 and 4 workers, each measurement in a fresh
subprocess (this file re-invoked with ``--worker``) so allocator and GC
state cannot bleed between runs, plus one ``inproc`` oracle run. Every
run must land on bitwise-identical k-eff: speedup can never come from an
engine that changed the numbers.

The record keeps wall-clock speedups *and* the machine's core count:
domain-parallel sweeps cannot beat the serial engine on a box with fewer
cores than workers (the acceptance floors — 1.8x for ``mp``, 2.5x for
``mp-async`` at 4 workers — are asserted only when 4+ cores are present;
below that the measured ratios are still recorded honestly, tagged with
``cpus`` so readers know what they mean). Async runs also record the
mailbox counters (``halo_wait_ns``, ``neighbor_stalls``,
``epochs_overlapped``) so a scaling regression can be attributed to
waiting rather than sweeping.

Results merge into ``benchmarks/results/BENCH_engine.json``. Running the
module directly with ``--quick`` measures a reduced iteration count and is
the entry point used by the perf-smoke lane (``bench_perf_smoke.py``);
the non-slow ``test_async_scaling_smoke`` below is the CI scaling lane
(oracle + pinned 4-worker ``mp-async`` only, to fit a smoke budget).
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from repro.observability.exporters import (
    dump_record,
    merge_benchmark_record,
    parse_record,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_engine.json"

#: Acceptance floors on the full configuration, enforced only on hosts
#: with at least :data:`MIN_CPUS_FOR_FLOOR` cores. The async floor is the
#: PR's acceptance criterion: dependency-driven exchange must scale where
#: the two-barrier epoch could not.
MIN_SPEEDUP_4W = 1.8
MIN_ASYNC_SPEEDUP_4W = 2.5
MIN_CPUS_FOR_FLOOR = 4

#: Fixed iteration counts (convergence switched off so every run sweeps
#: identical work) per configuration.
CONFIGS = {
    "full": {"iterations": 40},
    "quick": {"iterations": 10},
}

NUM_DOMAINS = 4
WORKER_COUNTS = (1, 2, 4)
PROTOCOLS = ("mp", "mp-async")


# ---------------------------------------------------------------------------
# Worker: one timed solve in a clean interpreter.
# ---------------------------------------------------------------------------

def _run_worker(args: argparse.Namespace) -> None:
    import gc

    from repro.geometry.c5g7 import C5G7Spec, build_c5g7_3d
    from repro.materials import c5g7_library
    from repro.parallel import ZDecomposedSolver

    geometry3d = build_c5g7_3d(
        c5g7_library(),
        C5G7Spec(
            pins_per_assembly=3, reflector_refinement=2,
            fuel_layers=2, reflector_layers=2,
        ),
    )
    engine = "inproc" if args.worker == 0 else args.engine
    solver = ZDecomposedSolver(
        geometry3d, num_domains=NUM_DOMAINS, num_azim=4, azim_spacing=0.5,
        polar_spacing=1.0, num_polar=2,
        keff_tolerance=1e-14, source_tolerance=1e-14,
        max_iterations=args.iterations,
        engine=engine, workers=args.worker or None, pin_workers=args.pin,
    )
    gc.disable()
    result = solver.solve()
    sweep_seconds = [
        payload.get("worker_sweep", 0.0) for _wid, payload in result.worker_timers
    ]
    print(dump_record({
        "engine": engine,
        "workers": result.num_workers,
        "solve_seconds": result.solve_seconds,
        "keff": result.keff.hex(),  # exact spelling for bitwise comparison
        "iterations": result.num_iterations,
        "comm_bytes": result.comm_bytes,
        "comm_messages": result.comm_messages,
        "max_worker_sweep_seconds": max(sweep_seconds, default=0.0),
        "comm_counters": result.comm_counters,
    }))


def _spawn(workers: int, config: dict, engine: str = "mp",
           pin: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--worker", str(workers),
        "--engine", engine,
        "--iterations", str(config["iterations"]),
    ]
    if pin:
        cmd.append("--pin")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"engine worker ({engine}, {workers}) failed ({proc.returncode}):\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return parse_record(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Record assembly.
# ---------------------------------------------------------------------------

def run_case(case: str) -> dict:
    """Measure the oracle and the full protocol/worker matrix."""
    config = CONFIGS[case]
    oracle = _spawn(0, config)
    runs = {
        engine: {w: _spawn(w, config, engine=engine) for w in WORKER_COUNTS}
        for engine in PROTOCOLS
    }

    all_runs = [oracle] + [r for per in runs.values() for r in per.values()]
    keffs = {r["keff"] for r in all_runs}
    comms = {(r["comm_bytes"], r["comm_messages"]) for r in all_runs}
    ratios = {}
    for engine in PROTOCOLS:
        prefix = "speedup" if engine == "mp" else "async_speedup"
        serial = runs[engine][1]["solve_seconds"]
        for w in WORKER_COUNTS:
            ratios[f"{prefix}_{w}w"] = serial / max(
                runs[engine][w]["solve_seconds"], 1e-12
            )
    # Head-to-head: barrier wall-clock over mailbox wall-clock, same workers.
    for w in WORKER_COUNTS:
        ratios[f"async_vs_mp_{w}w"] = runs["mp"][w]["solve_seconds"] / max(
            runs["mp-async"][w]["solve_seconds"], 1e-12
        )
    record = {
        "case": case,
        "config": config,
        "cpus": os.cpu_count(),
        "num_domains": NUM_DOMAINS,
        "keff": float.fromhex(oracle["keff"]),
        "bitwise_identical": len(keffs) == 1,
        "comm_identical": len(comms) == 1,
        "runs": {
            "inproc": {"solve_seconds": round(oracle["solve_seconds"], 4)},
            **{
                f"{engine}-{w}w": {
                    "solve_seconds": round(r["solve_seconds"], 4),
                    "max_worker_sweep_seconds": round(
                        r["max_worker_sweep_seconds"], 4
                    ),
                    **(
                        {"comm_counters": r["comm_counters"]}
                        if r.get("comm_counters") else {}
                    ),
                }
                for engine, per in runs.items()
                for w, r in per.items()
            },
        },
        "ratios": ratios,
    }
    merge_benchmark_record(BENCH_JSON, record, benchmark="engine-scaling")
    return record


def _report(reporter, record: dict) -> None:
    reporter.line(
        f"case: {record['case']}  ({record['num_domains']} z-domains, "
        f"{record['config']['iterations']} iterations, {record['cpus']} cpus)"
    )
    rows = [["inproc", f"{record['runs']['inproc']['solve_seconds']:.3f}", "-"]]
    for engine in PROTOCOLS:
        prefix = "speedup" if engine == "mp" else "async_speedup"
        for w in WORKER_COUNTS:
            rows.append([
                f"{engine}-{w}w",
                f"{record['runs'][f'{engine}-{w}w']['solve_seconds']:.3f}",
                f"{record['ratios'][f'{prefix}_{w}w']:.2f}x",
            ])
    reporter.table(["engine", "solve (s)", "vs own 1w"], rows, widths=[14, 12, 10])
    reporter.line(
        "async vs mp (same workers): "
        + ", ".join(
            f"{w}w {record['ratios'][f'async_vs_mp_{w}w']:.2f}x"
            for w in WORKER_COUNTS
        )
    )
    reporter.line(
        f"bitwise identical keff: {record['bitwise_identical']}  "
        f"identical traffic: {record['comm_identical']}"
    )


# ---------------------------------------------------------------------------
# Pytest entry points.
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # direct --worker invocation needs no pytest
    pytest = None


if pytest is not None:

    @pytest.mark.slow
    def test_engine_scaling(reporter):
        """Full matrix: mp and mp-async wall-clock scaling on coarse C5G7 3D."""
        record = run_case("full")
        _report(reporter, record)
        assert record["bitwise_identical"], "engines disagreed on k-eff"
        assert record["comm_identical"], "engines disagreed on traffic totals"
        if record["cpus"] and record["cpus"] >= MIN_CPUS_FOR_FLOOR:
            speedup = record["ratios"]["speedup_4w"]
            assert speedup >= MIN_SPEEDUP_4W, (
                f"mp engine only {speedup:.2f}x at 4 workers on "
                f"{record['cpus']} cores (floor {MIN_SPEEDUP_4W}x)"
            )
            async_speedup = record["ratios"]["async_speedup_4w"]
            assert async_speedup >= MIN_ASYNC_SPEEDUP_4W, (
                f"mp-async engine only {async_speedup:.2f}x at 4 workers on "
                f"{record['cpus']} cores (floor {MIN_ASYNC_SPEEDUP_4W}x)"
            )
        else:
            reporter.line(
                f"speedup floors not enforced: {record['cpus']} cpu(s) < "
                f"{MIN_CPUS_FOR_FLOOR} (ratios recorded for reference)"
            )

    def test_async_scaling_smoke(reporter):
        """CI smoke lane: oracle + pinned 4-worker mp-async, quick budget.

        Bitwise identity is asserted on any machine; the 4-worker speedup
        floor only where 4+ cores make it physically attainable.
        """
        config = CONFIGS["quick"]
        oracle = _spawn(0, config)
        serial = _spawn(1, config, engine="mp-async")
        run = _spawn(4, config, engine="mp-async", pin=True)
        assert run["keff"] == oracle["keff"] == serial["keff"], (
            "mp-async disagreed with inproc on k-eff"
        )
        assert (run["comm_bytes"], run["comm_messages"]) == (
            oracle["comm_bytes"], oracle["comm_messages"]
        ), "mp-async disagreed with inproc on traffic totals"
        speedup = serial["solve_seconds"] / max(run["solve_seconds"], 1e-12)
        counters = run["comm_counters"]
        reporter.line(
            f"mp-async quick: 4w pinned {speedup:.2f}x over 1w "
            f"({os.cpu_count()} cpus), stalls={counters['neighbor_stalls']}, "
            f"overlapped={counters['epochs_overlapped']}, "
            f"halo_wait={counters['halo_wait_ns'] / 1e6:.1f}ms"
        )
        cpus = os.cpu_count() or 1
        if cpus >= MIN_CPUS_FOR_FLOOR:
            assert speedup >= MIN_ASYNC_SPEEDUP_4W, (
                f"mp-async smoke only {speedup:.2f}x at 4 pinned workers on "
                f"{cpus} cores (floor {MIN_ASYNC_SPEEDUP_4W}x)"
            )
        else:
            reporter.line(
                f"speedup floor not enforced: {cpus} cpu(s) < "
                f"{MIN_CPUS_FOR_FLOOR}"
            )


# ---------------------------------------------------------------------------
# Direct invocation (worker protocol + perf-smoke entry point).
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--worker", type=int, default=None, metavar="W",
        help="internal: run one timed solve (0 = inproc oracle, N = the "
        "chosen engine with N workers)",
    )
    parser.add_argument(
        "--engine", choices=PROTOCOLS, default="mp",
        help="process engine measured by --worker runs (default mp)",
    )
    parser.add_argument(
        "--pin", action="store_true",
        help="pin worker processes to distinct CPUs (mp engines)",
    )
    parser.add_argument("--iterations", type=int, default=CONFIGS["full"]["iterations"])
    parser.add_argument("--quick", action="store_true", help="measure the reduced configuration")
    parser.add_argument("--json", action="store_true", help="print the case record as JSON")
    args = parser.parse_args(argv)

    if args.worker is not None:
        _run_worker(args)
        return 0

    record = run_case("quick" if args.quick else "full")
    if args.json:
        print(dump_record(record, indent=2))
    else:
        ratios = ", ".join(
            f"{w}w {record['ratios'][f'speedup_{w}w']:.2f}x/"
            f"{record['ratios'][f'async_speedup_{w}w']:.2f}x"
            for w in WORKER_COUNTS
        )
        print(
            f"{record['case']}: mp/mp-async {ratios}, "
            f"identical={record['bitwise_identical']} ({record['cpus']} cpus)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
