"""The end-to-end performance ledger: one command, six named workloads.

    python benchmarks/e2e/run.py [--workload W] [--repeats N] [--seed S]
    python benchmarks/e2e/run.py --smoke
    python benchmarks/e2e/run.py aa [--repeats N]
    python benchmarks/e2e/run.py compare A.json B.json
    python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

The first form is the ledger: per workload ``--repeats`` untraced repeats
(end-to-end metrics: median, quartiles, sample count) plus one traced
repeat (per-layer metrics), every metric printed by name with its unit,
outputs checked, the record and span files written under ``results/``.
``aa`` takes two alternating sets of the same commit and writes both
records plus their comparison (``results/aa-table.txt``). The last form is
the single-run protocol of ``BENCHMARK.json``: measure
for ``--seconds``, print one JSON object as the last line of stdout.

Exits non-zero when any output check fails (see README.md).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from typing import Any

E2E_DIR = Path(__file__).resolve().parent
REPO_DIR = E2E_DIR.parents[1]
if not (REPO_DIR / "src" / "repro" / "__init__.py").is_file():
    raise SystemExit(
        f"{REPO_DIR / 'src'} holds no repro package: the ledger times the "
        "program from source and needs the full checkout"
    )
sys.path.insert(0, str(REPO_DIR / "src"))

from repro.observability.exporters import dump_record, read_record, write_record  # noqa: E402

import compare  # noqa: E402
import host  # noqa: E402
import metrics  # noqa: E402
import ops  # noqa: E402
import serve_mix  # noqa: E402
import trace as tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

RESULTS_DIR = E2E_DIR / "results"
BENCHMARK_JSON = REPO_DIR / "BENCHMARK.json"
DEFAULT_REPEATS = 3
#: A further repeat starts only if the slowest one so far, plus this
#: margin, still fits the ``--seconds`` budget.
FIT_MARGIN = 1.1


def measure(workload: Workload, seed: int, traced: bool, smoke: bool) -> dict[str, Any]:
    """One repeat of ``workload``, reduced to metrics, failures and the
    bits every repeat must reproduce."""
    if workload.kind == "serve":
        return serve_mix.run_serve_repeat(workload, seed, traced, smoke)
    obs = ops.run_solve_repeat(workload, traced, smoke)
    failed_ops = [op for op in obs["ops"] if op["failures"]]
    result: dict[str, Any] = {
        "attempted": len(obs["ops"]),
        "failed": len(failed_ops),
        "failures": [f for op in obs["ops"] for f in op["failures"]],
        "identity": {},
        "e2e": None,
        "layers": None,
        "spans": None,
    }
    if any(op["record"] is None or not op["reports"] for op in obs["ops"]):
        return result
    for op in obs["ops"]:
        for state in op["record"]["states"]:
            result["identity"][f"{op['label']}/{state['name']}"] = [
                state["keff_hex"], state["flux_sha256"], state["iterations"],
            ]
    result["e2e"] = metrics.solve_end_to_end(obs)
    if traced:
        result["spans"] = metrics.solve_spans(obs)
        result["layers"] = metrics.solve_layers(obs, result["e2e"], result["spans"])
        if not smoke:
            result["layers"].update(
                metrics.perfmodel_residuals(
                    workload.config_path, result["layers"], result["e2e"]["peak_rss_mb"]
                )
            )
    return result


def collect_runs(
    workload: Workload,
    seed: int,
    repeats: int | None,
    seconds: float | None,
    traced_repeats: int,
    smoke: bool = False,
) -> tuple[list[dict[str, Any]], list[dict[str, float]]]:
    """All repeats of one workload, each with its host calibration.

    With ``repeats`` (ledger): that many untraced repeats, then
    ``traced_repeats`` traced ones. With ``seconds`` (single-run
    protocol): repeats until the next would overrun the budget — untraced
    ones, or if ``traced_repeats`` one untraced baseline followed by
    traced ones.

    The host is calibrated before and after every repeat (``host.py``):
    the repeat's durations are divided by the mean slowdown of its two
    samples, and a repeat whose samples differ by more than 15 % is noisy
    and is retried once — the repeat of the same kind that follows
    replaces it in the medians (in the ledger an extra repeat; under a
    time budget the next one, if one still fits).
    """
    start = tracing.now()
    runs: list[dict[str, Any]] = []
    calibrator = host.Calibrator()
    calibrations = [calibrator.sample()]
    slowest = 0.0

    def one(traced: bool) -> None:
        nonlocal slowest
        previous = next((r for r in reversed(runs) if r["traced"] == traced), None)
        began = tracing.now()
        run = measure(workload, seed, traced, smoke)
        slowest = max(slowest, tracing.now() - began)
        calibrations.append(calibrator.sample())
        before, after = calibrations[-2:]
        run["traced"] = traced
        run["slowdown"] = 0.5 * (before["slowdown"] + after["slowdown"])
        run["noisy"] = host.is_noisy(before, after)
        run["retry"] = bool(previous and previous["noisy"] and not previous["retry"])
        if run["retry"]:
            previous["replaced"] = True
        if run["e2e"] is not None:
            run["e2e_raw"] = run["e2e"]
            run["e2e"] = metrics.normalized(run["e2e"], metrics.END_TO_END, run["slowdown"])
        if run["layers"] is not None:
            run["layers"] = metrics.normalized(run["layers"], metrics.PER_LAYER, run["slowdown"])
        runs.append(run)

    if repeats is not None:
        for traced in [False] * repeats + [True] * traced_repeats:
            one(traced)
            if runs[-1]["noisy"]:
                one(traced)
    else:
        trace = bool(traced_repeats)
        for traced in ([False, True] if trace else [False]):  # the minimum, whatever the budget
            one(traced)
        while tracing.now() - start + FIT_MARGIN * slowest <= seconds:
            one(trace)
    return runs, calibrations


def split_alternating(runs: list[dict]) -> tuple[list[dict], list[dict]]:
    """Two sets of repeats of one commit, alternating in time (A/A): the
    kept repeats of each kind go to A and B in turn, so both sets see the
    same stretches of host weather. Replaced repeats are accounted to A."""
    halves: tuple[list[dict], list[dict]] = ([], [])
    for traced in (False, True):
        kept = [r for r in runs if r["traced"] == traced and not r.get("replaced")]
        for index, run in enumerate(kept):
            halves[index % 2].append(run)
    halves[0].extend(r for r in runs if r.get("replaced"))
    return halves


def reduce_runs(workload: Workload, runs: list[dict], calibrations: list[dict]) -> dict[str, Any]:
    retries = sum(run["retry"] for run in runs)
    failures = [f for run in runs for f in run["failures"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    reference = runs[0]["identity"]
    if any(run["identity"] != reference for run in runs[1:]):
        failures.append("repeats of one input returned different keff_hex/flux_sha256")
        failed = max(failed, 1)

    def kept(traced: bool) -> list[dict]:
        """Measured repeats of one kind, without those a retry replaced."""
        return [
            r for r in runs
            if r["traced"] == traced and r["e2e"] is not None and not r.get("replaced")
        ]

    untraced, traced = kept(False), kept(True)
    end_to_end = {
        name: {
            "unit": unit,
            **metrics.summarize([r["e2e"][name] for r in untraced]),
            "raw_median": statistics.median(r["e2e_raw"][name] for r in untraced),
        }
        for name, (unit, _better) in metrics.END_TO_END.items()
    } if untraced else {}
    per_layer: dict[str, dict[str, Any]] = {}
    exact = metrics.EXACT_SERVE if workload.kind == "serve" else metrics.EXACT
    if traced:
        for name, (unit, _better) in metrics.PER_LAYER.items():
            values = [r["layers"][name] for r in traced]
            if name in exact and len(set(values)) > 1:
                failures.append(f"exact count {name} differs between repeats: {values}")
                failed = max(failed, 1)
            per_layer[name] = {"unit": unit, "value": statistics.median(values)}
        per_layer["host.calib_ms"]["value"] = statistics.median(c["cache"] for c in calibrations)
        per_layer["host.slowdown"]["value"] = statistics.median(r["slowdown"] for r in traced)
        per_layer["host.noisy_retries"]["value"] = retries
        if untraced:
            base = end_to_end["wall_s"]["median"]
            traced_wall = statistics.median(r["e2e"]["wall_s"] for r in traced)
            per_layer["trace.overhead_frac"]["value"] = traced_wall / base - 1.0
    return {
        "why": workload.why,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "noisy_retries": retries,
        "calibrations": calibrations,
        "identity": reference,
        "exact": list(exact),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": traced[-1]["spans"] if traced else None,
    }


def write_spans(directory: Path, name: str, spans: list[dict]) -> Path:
    """The span file of one traced repeat, times relative to its launch."""
    origin = min(span["start"] for span in spans)
    return write_record(
        directory / f"trace-{name}.json",
        {
            "kind": "e2e-trace",
            "workload": name,
            "columns": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [s["name"], round(s["start"] - origin, 6), round(s["end"] - origin, 6),
                 s["parent"], s["op"]]
                for s in spans
            ],
        },
    )


def print_workload(name: str, record: dict[str, Any]) -> None:
    print(f"\n== {name} — {record['why']}")
    print(f"  operations: {record['attempted']} attempted, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:.4f}); noisy retries: {record['noisy_retries']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for metric, row in record["end_to_end"].items():
        print(f"  {metric:<34s} {row['median']:>14.4f} {row['unit']:<8s} "
              f"[q1 {row['q1']:.4f}, q3 {row['q3']:.4f}, n={row['n']}; "
              f"as measured {row['raw_median']:.4f}]")
    for metric, row in record["per_layer"].items():
        print(f"  {metric:<34s} {row['value']:>14.6g} {row['unit']}")


def run_ledger(args: argparse.Namespace, aa: bool = False) -> int:
    """The ledger; with ``aa`` two alternating sets of the same commit,
    written as ``ledger.json`` / ``ledger-aa.json`` plus their comparison."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    repeats = 1 if args.smoke else args.repeats
    sets = 2 if aa else 1
    ledgers: list[dict[str, Any]] = [
        {
            "kind": "e2e-ledger",
            "schema": 1,
            "host": host.fingerprint(REPO_DIR),
            "args": {"repeats": repeats, "seed": args.seed, "smoke": args.smoke},
            "workloads": {},
        }
        for _ in range(sets)
    ]
    out_dir = ops.WORK_DIR if args.smoke else RESULTS_DIR
    for name in names:
        runs, calibrations = collect_runs(
            WORKLOADS[name], args.seed, sets * repeats, None, sets, args.smoke
        )
        for ledger, half in zip(ledgers, split_alternating(runs) if aa else (runs,)):
            record = reduce_runs(WORKLOADS[name], half, calibrations)
            spans = record.pop("spans")
            if spans and ledger is ledgers[0]:
                write_spans(out_dir, name, spans)
            ledger["workloads"][name] = record
        print_workload(name, ledgers[0]["workloads"][name])
    path = Path(args.out) if args.out else out_dir / "ledger.json"
    bad = []
    for ledger, target in zip(ledgers, (path, path.with_name(path.stem + "-aa.json"))):
        pair = [ledger["workloads"].get(n) for n in ("c3d-z2-mp", "c3d-z2-async")]
        if all(pair) and pair[0]["identity"] != pair[1]["identity"]:
            pair[1]["failures"].append("engine mp-async returned other bits than engine mp")
            pair[1]["failed"] = max(pair[1]["failed"], 1)
            print("  FAILED c3d-z2-async: " + pair[1]["failures"][-1])
        write_record(target, ledger)
        print(f"\nrecord written to {target}")
        bad += [n for n, r in ledger["workloads"].items() if r["failed"] or not r["end_to_end"]]
    print(f"span files under {out_dir}")
    if aa:
        table = compare.render(ledgers[0], ledgers[1], read_record(BENCHMARK_JSON))
        (out_dir / "aa-table.txt").write_text(table + "\n", encoding="utf-8")
        print("\n" + table)
    if bad:
        print(f"OUTPUT CHECKS FAILED on: {', '.join(sorted(set(bad)))}", file=sys.stderr)
    return 1 if bad else 0


def run_single(args: argparse.Namespace) -> int:
    """The ``BENCHMARK.json`` protocol: one workload, one JSON line."""
    workload = WORKLOADS[args.workload]
    record = reduce_runs(
        workload, *collect_runs(workload, args.seed, None, args.seconds, args.trace)
    )
    spans = record.pop("spans")
    if spans:
        write_spans(ops.WORK_DIR, args.workload, spans)
    rows = record["per_layer"] if args.trace else record["end_to_end"]
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if not rows:
        print("no repeat produced metrics", file=sys.stderr)
        return 1
    print(dump_record({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": row["value"] if args.trace else row["median"], "unit": row["unit"]}
            for name, row in rows.items()
        },
    }))
    return 0 if record["failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        print(compare.render(read_record(args.a), read_record(args.b),
                             read_record(BENCHMARK_JSON)))
        return 0
    aa = bool(argv) and argv[0] == "aa"
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="untraced repeats per workload (default %(default)s)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the serve-mix request order")
    parser.add_argument("--smoke", action="store_true",
                        help="2-iteration solves, 36 requests, 1 repeat; pinned "
                        "results are not checked")
    parser.add_argument("--out", help="ledger record path (default results/ledger.json)")
    parser.add_argument("--seconds", type=float,
                        help="single-run protocol: measure --workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="single-run protocol: 1 reports the per-layer metrics")
    args = parser.parse_args(argv[1:] if aa else argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return run_single(args)
    return run_ledger(args, aa)


if __name__ == "__main__":
    raise SystemExit(main())
