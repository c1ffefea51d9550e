"""The timed child of the end-to-end ledger: one operation, one process.

Makes the same four public calls ``repro.cli.main`` makes — ``load_config``
-> ``AntMocApplication(config, stage_hook=stamp).run()`` (or
``run_scenario_batch(config, stage_hook=stamp)``) -> ``write_report`` — so
what the parent times from outside is what ``python -m repro`` costs. The
only instrumentation of an untraced run is the documented ``stage_hook``
(one clock read per pipeline stage). With ``--trace-out`` the wrappers of
``trace.py`` are installed first and the span list is written at exit.

Exit code mirrors the CLI: 0 converged, 2 unconverged, 1 on a library
error. The parent expects the code each workload pins.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from repro.errors import ReproError
from repro.io import config as config_io
from repro.observability import exporters
from repro.runtime.antmoc import AntMocApplication

#: Interpreter start and the imports ``repro.cli`` makes end here; the
#: harness's own needs are imported after the stamp.
T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import resource  # noqa: E402

import trace as tracing  # noqa: E402


def _array_bytes(value, seen: set[int]) -> int:
    """Bytes of every distinct ndarray reachable through tuples/lists."""
    if isinstance(value, np.ndarray):
        if id(value) in seen:
            return 0
        seen.add(id(value))
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_array_bytes(item, seen) for item in value)
    return 0


def kept_facts(kept: list) -> dict:
    """Array sizes of the sweep plans and source terms the traced run
    built: what the kernel streams, labelled *computed* by the ledger."""
    seen: set[int] = set()
    plan_bytes = 0
    num_polar = 0
    num_groups = 0
    for obj in kept:
        kind = type(obj).__name__
        if kind == "SweepPlan":
            topology = obj.topology
            num_polar = max(num_polar, int(topology.num_polar))
            for owner in (obj, topology):
                for slot in type(owner).__slots__:
                    plan_bytes += _array_bytes(getattr(owner, slot, None), seen)
        elif kind == "SourceTerms":
            num_groups = max(num_groups, int(obj.num_groups))
    return {"plan_bytes": plan_bytes, "num_polar": num_polar, "num_groups": num_groups}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--kind", choices=("solve", "batch"), required=True)
    parser.add_argument("--report-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out:
        recorder = tracing.Recorder()
        index = recorder.open("trace.install")
        tracing.install(recorder)
        recorder.close(index)

    stamps: dict[str, float] = {}

    def stamp(stage: str) -> None:
        stamps[stage] = tracing.now()

    try:
        config = config_io.load_config(args.config)
        if args.kind == "batch":
            from repro.scenario import run_scenario_batch

            batch = run_scenario_batch(config, stage_hook=stamp)
            states = [
                (s.scenario.name, s.keff, s.converged, s.num_iterations,
                 s.scalar_flux, s.run_report)
                for s in batch.states
            ]
        else:
            result = AntMocApplication(config, stage_hook=stamp).run()
            states = [
                ("run", result.keff, result.converged, result.num_iterations,
                 result.scalar_flux, result.run_report)
            ]
        report_dir = Path(args.report_dir)
        for name, _keff, _conv, _iters, _flux, report in states:
            exporters.write_report(report, f"json:{report_dir / (name + '.json')}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t_done = tracing.now()

    record = {
        # Largest process of this operation's tree: this one, or the
        # largest forked engine worker it reaped.
        "peak_rss_kb": max(
            tracing.peak_rss_kb(),
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ),
        "t_imported": T_IMPORTED,
        "t_done": t_done,
        "stamps": stamps,
        "states": [
            {
                "name": name,
                "keff": float(keff),
                "keff_hex": float(keff).hex(),
                "converged": bool(converged),
                "iterations": int(iterations),
                "flux_sha256": hashlib.sha256(
                    np.ascontiguousarray(flux).tobytes()
                ).hexdigest(),
            }
            for name, keff, converged, iterations, flux, _report in states
        ],
    }
    exporters.write_record(report_dir / "child.json", record)
    if recorder is not None:
        exporters.write_record(
            args.trace_out,
            {"spans": recorder.spans, "facts": kept_facts(recorder.kept)},
        )
    return 0 if all(state[2] for state in states) else 2


if __name__ == "__main__":
    raise SystemExit(main())
