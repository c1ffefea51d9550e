"""Tracking-pipeline throughput and cache benchmark (the BENCH_tracking record).

Times full 3D track generation on a coarse C5G7 core four ways:

- ``reference`` — the seed scalar ray walker, cold;
- ``batch``     — the wavefront tracer, cold;
- ``store``     — the wavefront tracer plus a cache store;
- ``warm``      — a pure cache hit.

Every measurement runs in a **fresh subprocess** (this file re-invoked with
``--worker``) with the collector disabled: on small hosts the allocator and
GC state left behind by a previous build perturbs numpy-heavy timings by
integer factors, so in-process back-to-back timing is meaningless here.

Each worker also fingerprints its tracking products (2D segments, chain
tables, 3D track coordinates) with SHA-256, and the test requires all four
digests to agree — the speedups can never come from a tracer or a cache
round-trip that changed a single segment. A separate eigenvalue check
solves a pin cell with both tracers and asserts k-eff agreement to 1e-10.

Results merge into ``benchmarks/results/BENCH_tracking.json``. Running the
module directly with ``--quick`` measures a reduced configuration and is
the entry point used by the perf-smoke lane (``bench_perf_smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.observability.exporters import (
    dump_record,
    merge_benchmark_record,
    parse_record,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
BENCH_JSON = RESULTS_DIR / "BENCH_tracking.json"

#: Acceptance floors on the full configuration (cold = batch vs reference,
#: warm = cache hit vs reference); the quick configuration records ratios
#: for the perf-smoke lane without enforcing them.
MIN_COLD_SPEEDUP = 5.0
MIN_WARM_SPEEDUP = 20.0

#: Tracking parameters per configuration. The full case matches the coarse
#: C5G7 3D sweep-kernel workload but with a laydown fine enough that the
#: tracing itself dominates (~116k 3D tracks).
CONFIGS = {
    "full": {"azim_spacing": 0.002, "polar_spacing": 18.0},
    "quick": {"azim_spacing": 0.01, "polar_spacing": 18.0},
}

_MODES = ("reference", "batch", "store", "warm")


# ---------------------------------------------------------------------------
# Worker: one timed generation in a clean interpreter.
# ---------------------------------------------------------------------------

def _product_digest(trackgen) -> str:
    """SHA-256 over every array the tracers are responsible for."""
    import numpy as np

    h = hashlib.sha256()
    segments = trackgen.segments
    for arr in (segments.offsets, segments.fsr_ids, segments.lengths):
        h.update(np.ascontiguousarray(arr).tobytes())
    for index in sorted(trackgen.chain_tables):
        table = trackgen.chain_tables[index]
        h.update(np.ascontiguousarray(table.fsrs).tobytes())
        h.update(np.ascontiguousarray(table.bounds).tobytes())
    coords = np.array(
        [(t.s0, t.z0, t.s1, t.z1, t.theta) for t in trackgen.tracks3d]
    )
    h.update(coords.tobytes())
    return h.hexdigest()


def _run_worker(args: argparse.Namespace) -> None:
    import gc
    import time

    from repro.geometry.c5g7 import C5G7Spec, build_c5g7_3d
    from repro.materials import c5g7_library
    from repro.tracks import TrackGenerator3D
    from repro.tracks.cache import TrackingCache

    mode = args.worker
    tracer = "reference" if mode == "reference" else "batch"
    cache = TrackingCache(args.cache_dir) if mode in ("store", "warm") else None

    spec = C5G7Spec(
        pins_per_assembly=3, reflector_refinement=2,
        fuel_layers=2, reflector_layers=2,
    )
    geometry3d = build_c5g7_3d(c5g7_library(), spec)
    trackgen = TrackGenerator3D(
        geometry3d,
        num_azim=16,
        azim_spacing=args.azim_spacing,
        polar_spacing=args.polar_spacing,
        num_polar=2,
        tracer=tracer,
        cache=cache,
    )
    gc.disable()
    t0 = time.perf_counter()
    trackgen.generate()
    total = time.perf_counter() - t0
    record = {
        "mode": mode,
        "tracer": tracer,
        "seconds": total,
        "cache_hit": bool(trackgen.timings.cache_hit),
        "t2d": trackgen.num_tracks,
        "t3d": len(trackgen.tracks3d),
        "num_segments": int(trackgen.segments.num_segments),
        "digest": _product_digest(trackgen),
        "phases": {k: round(v, 4) for k, v in trackgen.timings.as_dict().items()},
    }
    if mode == "warm" and not record["cache_hit"]:
        raise SystemExit("warm run missed the cache")
    if mode in ("reference", "batch") and record["cache_hit"]:
        raise SystemExit(f"{mode} run unexpectedly hit a cache")
    print(dump_record(record))


def _spawn(mode: str, config: dict, cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--worker", mode,
            "--azim-spacing", str(config["azim_spacing"]),
            "--polar-spacing", str(config["polar_spacing"]),
            "--cache-dir", cache_dir,
        ],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {mode} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return parse_record(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Record assembly.
# ---------------------------------------------------------------------------

def run_case(case: str) -> dict:
    """Measure all four modes of one configuration in fresh subprocesses."""
    config = CONFIGS[case]
    runs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        for mode in _MODES:
            runs[mode] = _spawn(mode, config, cache_dir)

    digests = {r["digest"] for r in runs.values()}
    reference = runs["reference"]["seconds"]
    record = {
        "case": case,
        "config": config,
        "t2d": runs["batch"]["t2d"],
        "t3d": runs["batch"]["t3d"],
        "num_segments": runs["batch"]["num_segments"],
        "segments_identical": len(digests) == 1,
        "runs": {
            mode: {"seconds": round(r["seconds"], 3), "phases": r["phases"]}
            for mode, r in runs.items()
        },
        "ratios": {
            "cold_speedup": reference / max(runs["batch"]["seconds"], 1e-12),
            "warm_speedup": reference / max(runs["warm"]["seconds"], 1e-12),
            "store_overhead": runs["store"]["seconds"]
            / max(runs["batch"]["seconds"], 1e-12),
        },
    }
    merge_benchmark_record(BENCH_JSON, record, benchmark="tracking")
    return record


def _report(reporter, record: dict) -> None:
    reporter.line(
        f"case: {record['case']}  (t2d={record['t2d']}, t3d={record['t3d']}, "
        f"{record['num_segments']} 2D segments)"
    )
    reporter.table(
        ["mode", "seconds", "vs reference"],
        [
            [
                mode,
                f"{run['seconds']:.3f}",
                f"{record['runs']['reference']['seconds'] / max(run['seconds'], 1e-12):.2f}x",
            ]
            for mode, run in record["runs"].items()
        ],
        widths=[12, 10, 14],
    )
    reporter.line(
        f"segments identical across all runs: {record['segments_identical']}"
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
    def test_tracking_wavefront_and_cache(reporter):
        """Full configuration: the acceptance case for the wavefront tracer
        and the tracking cache."""
        record = run_case("full")
        _report(reporter, record)
        assert record["segments_identical"], "tracer/cache runs produced different segments"
        ratios = record["ratios"]
        assert ratios["cold_speedup"] >= MIN_COLD_SPEEDUP, (
            f"batch tracer only {ratios['cold_speedup']:.2f}x over the reference walker"
        )
        assert ratios["warm_speedup"] >= MIN_WARM_SPEEDUP, (
            f"cache hit only {ratios['warm_speedup']:.2f}x over a cold reference build"
        )

    @pytest.mark.slow
    def test_tracer_keff_agreement(reporter):
        """Both tracers must drive the solver to the same eigenvalue."""
        import numpy as np

        from repro.geometry import Geometry, Lattice
        from repro.geometry.universe import make_pin_cell_universe
        from repro.materials import c5g7_library
        from repro.solver import KeffSolver, SourceTerms, TransportSweep2D
        from repro.tracks import TrackGenerator

        library = c5g7_library()
        pin = make_pin_cell_universe(
            0.54, library["UO2"], library["Moderator"], num_rings=2, num_sectors=4
        )
        keffs = {}
        for tracer in ("reference", "batch"):
            geometry = Geometry(Lattice([[pin]], 1.26, 1.26))
            trackgen = TrackGenerator(
                geometry, num_azim=8, azim_spacing=0.05, num_polar=4, tracer=tracer
            ).generate()
            terms = SourceTerms(list(geometry.fsr_materials))
            sweeper = TransportSweep2D(trackgen, terms)
            solver = KeffSolver(
                terms, trackgen.fsr_volumes,
                sweep=sweeper.sweep,
                finalize=sweeper.finalize_scalar_flux,
                keff_tolerance=1e-14, source_tolerance=1e-14,
                max_iterations=8,
            )
            keffs[tracer] = solver.solve().keff
        reporter.line(f"keff reference={keffs['reference']:.12f}")
        reporter.line(f"keff batch    ={keffs['batch']:.12f}")
        assert abs(keffs["reference"] - keffs["batch"]) < 1e-10


# ---------------------------------------------------------------------------
# Direct invocation (worker protocol + perf-smoke entry point).
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", choices=_MODES, help="internal: run one timed mode")
    parser.add_argument("--azim-spacing", type=float, default=CONFIGS["full"]["azim_spacing"])
    parser.add_argument("--polar-spacing", type=float, default=CONFIGS["full"]["polar_spacing"])
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--quick", action="store_true", help="measure the reduced configuration")
    parser.add_argument("--json", action="store_true", help="print the case record as JSON")
    args = parser.parse_args(argv)

    if args.worker:
        _run_worker(args)
        return 0

    record = run_case("quick" if args.quick else "full")
    if args.json:
        print(dump_record(record, indent=2))
    else:
        ratios = record["ratios"]
        print(
            f"{record['case']}: cold {ratios['cold_speedup']:.2f}x, "
            f"warm {ratios['warm_speedup']:.2f}x, "
            f"identical={record['segments_identical']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
