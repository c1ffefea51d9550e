"""Command-line interface mirroring the ANT-MOC binary.

The artifact runs ``newmoc -config="config.yaml"``; this module provides
the same entry point for the reproduction:

    python -m repro --config config.yaml [--fission-map] [--report PATH]

A config with a ``scenarios:`` block is solved through the batched
multi-state driver instead:

    python -m repro solve-batch --config config.yaml [--serial] ...

The run log mirrors the artifact's: per-stage timings and storage figures
that the paper's appendix analyses from log fragments.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.errors import ReproError
from repro.io.config import ENGINES, REPORT_FORMATS, SWEEP_BACKENDS, TRACERS, load_config
from repro.observability.exporters import resolve_report_spec, write_report
from repro.runtime.antmoc import AntMocApplication


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run an ANT-MOC-style neutron transport simulation.",
    )
    parser.add_argument(
        "--config",
        required=True,
        help="Path to a config.yaml-style run configuration.",
    )
    parser.add_argument(
        "--fission-map",
        action="store_true",
        help="Render the fission-rate distribution as ASCII art (Fig. 7).",
    )
    parser.add_argument(
        "--map-size",
        type=int,
        default=40,
        help="ASCII map resolution (default 40).",
    )
    parser.add_argument(
        "--report",
        metavar="SPEC",
        help="Write the schema-versioned run report. SPEC is a format "
        f"({', '.join(REPORT_FORMATS)}), 'format:path', or a bare path whose "
        "suffix picks the format (unknown suffixes mean text). Overrides the "
        "config's output.report and the REPRO_REPORT environment variable.",
    )
    _add_override_arguments(parser)
    parser.add_argument(
        "--submit",
        metavar="ADDRESS",
        help="Submit the (fully overridden) configuration to a running solve "
        "server ('host:port' or 'unix:/path', see python -m repro.serve) "
        "instead of solving locally. Results are bitwise-identical to a "
        "local run; an exact-manifest repeat is answered from the server's "
        "report cache without sweeping.",
    )
    parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="Scheduling priority for --submit (higher runs earlier; "
        "FIFO within a priority level; default %(default)s).",
    )
    return parser


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro solve-batch",
        description="Solve every scenario state of a config over ONE shared "
        "track laydown (batched on the numpy backend, per-state sequential "
        "fallback elsewhere). The states of a single-domain batch are "
        "independent solves and run on one process per CPU this process "
        "may run on (at most one per state); restrict the CPU affinity, "
        "e.g. with taskset, to use fewer. Each state's report says which "
        "share solved it (scenario_shares / scenario_share counters).",
    )
    parser.add_argument(
        "--config",
        required=True,
        help="Path to a run configuration with a non-empty scenarios: block.",
    )
    parser.add_argument(
        "--serial",
        action="store_true",
        help="Force the per-state sequential fallback (the equivalence "
        "oracle) even where the widened scenario-axis kernel applies; it "
        "names the kernel, not the process count.",
    )
    parser.add_argument(
        "--report-dir",
        metavar="DIR",
        help="Write one schema-versioned JSON run report per state into DIR "
        "(named <scenario>.json).",
    )
    _add_override_arguments(parser)
    return parser


def _add_override_arguments(parser: argparse.ArgumentParser) -> None:
    """The config-override flags shared by ``solve`` and ``solve-batch``."""
    parser.add_argument(
        "--backend",
        choices=SWEEP_BACKENDS,
        help="Sweep-kernel backend, overriding the config's solver.sweep_backend "
        "('auto' is numpy).",
    )
    parser.add_argument(
        "--tracer",
        choices=TRACERS,
        help="2D tracer, overriding the config's tracking.tracer "
        "('auto' uses the batched wavefront tracer).",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        help="Execution engine for decomposed solves, overriding the config's "
        "decomposition.engine ('auto' defers to $REPRO_ENGINE, 'mp' sweeps "
        "subdomains on real worker processes).",
    )
    parser.add_argument(
        "--workers",
        type=int,
        metavar="N",
        help="Worker processes for the mp engine (default: one per subdomain).",
    )
    parser.add_argument(
        "--engine-timeout",
        type=float,
        metavar="SECONDS",
        help="Engine wait timeout (barrier phases, mailbox waits), overriding "
        "the config's decomposition.timeout and $REPRO_ENGINE_TIMEOUT.",
    )
    parser.add_argument(
        "--cmfd",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="Enable (--cmfd) or disable (--no-cmfd) CMFD acceleration of "
        "the eigenvalue iteration, overriding the config's solver.cmfd "
        "block and the REPRO_CMFD environment variable.",
    )
    parser.add_argument(
        "--tracking-cache",
        nargs="?",
        const="",
        metavar="DIR",
        help="Reuse tracking products from the content-addressed cache. "
        "An optional DIR overrides the cache directory (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro).",
    )


def _apply_overrides(args: argparse.Namespace, config):
    """Fold the shared override flags into the loaded configuration."""
    if args.backend:
        config = dataclasses.replace(
            config,
            solver=dataclasses.replace(config.solver, sweep_backend=args.backend),
        )
    if args.tracer:
        config = dataclasses.replace(
            config,
            tracking=dataclasses.replace(config.tracking, tracer=args.tracer),
        )
    if args.engine or args.workers is not None or args.engine_timeout is not None:
        decomposition = dataclasses.replace(
            config.decomposition,
            engine=args.engine or config.decomposition.engine,
            workers=args.workers if args.workers is not None
            else config.decomposition.workers,
            timeout=args.engine_timeout if args.engine_timeout is not None
            else config.decomposition.timeout,
        )
        config = dataclasses.replace(config, decomposition=decomposition)
        config.decomposition.validate()
    if args.cmfd is not None:
        config = dataclasses.replace(
            config,
            solver=dataclasses.replace(
                config.solver,
                cmfd=dataclasses.replace(config.solver.cmfd, enabled=args.cmfd),
            ),
        )
    if args.tracking_cache is not None:
        config = dataclasses.replace(
            config,
            tracking=dataclasses.replace(
                config.tracking,
                tracking_cache=True,
                cache_dir=args.tracking_cache or config.tracking.cache_dir,
            ),
        )
    return config


def _submit(args: argparse.Namespace, config) -> int:
    """Ship the config to a solve server and report like a local run."""
    from repro.observability.record import RunReport
    from repro.serve.client import ServeClient

    with ServeClient(args.submit) as client:
        response = client.solve(config.to_dict(), priority=args.priority)
    origin = "report cache" if response.get("cache_hit") else "fresh solve"
    print(
        f"served by {args.submit} ({response['job_id']}, {origin}): "
        f"keff = {response['keff']:.6f} "
        f"({'converged' if response['converged'] else 'NOT converged'} "
        f"in {response['num_iterations']} iterations)"
    )
    spec = resolve_report_spec(args.report, config.output.report)
    if spec is not None and "report" in response:
        written = write_report(RunReport.from_dict(response["report"]), spec)
        print(f"run report written to {written}")
    return 0 if response["converged"] else 2


def batch_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``solve-batch`` verb."""
    args = build_batch_parser().parse_args(argv)
    try:
        config = _apply_overrides(args, load_config(args.config))
        from repro.scenario import run_scenario_batch

        result = run_scenario_batch(
            config, mode="sequential" if args.serial else "auto"
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(result.report())
    if args.report_dir:
        from pathlib import Path

        directory = Path(args.report_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for state in result.states:
            spec = resolve_report_spec(
                f"json:{directory / (state.scenario.name + '.json')}", None
            )
            written = write_report(state.run_report, spec)
            print(f"state report written to {written}")
    return 0 if all(state.converged for state in result.states) else 2


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "solve-batch":
        return batch_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(args, load_config(args.config))
        if args.submit:
            return _submit(args, config)
        app = AntMocApplication(config)
        result = app.run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    report = result.report()
    print(report)
    if args.fission_map and not result.decomposed:
        try:
            print()
            print(app.render_fission_map(result, size=args.map_size))
        except ReproError as exc:
            print(f"(fission map unavailable: {exc})")
    spec = resolve_report_spec(args.report, config.output.report)
    if spec is not None and result.run_report is not None:
        try:
            written = write_report(result.run_report, spec)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"run report written to {written}")
    return 0 if result.converged else 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
