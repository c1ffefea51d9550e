"""``python -m repro.report`` — load, pretty-print and diff run reports.

Subcommands:

* ``show <report>`` — render a JSON/JSONL run report as the human table
  (the same output the ``text`` exporter writes);
* ``diff <a> <b>`` — compare two reports; exits ``1`` when *significant*
  differences exist (numeric results, counters, schema version) and ``0``
  when the runs only differ in provenance or timings. ``--rtol``/``--atol``
  relax the k-eff comparison from bitwise to tolerance-based. Plain
  records (the golden records under ``tests/goldens/``) are diffed
  structurally with the same tolerances.

Examples::

    python -m repro.report show run-report.json
    python -m repro.report diff a.json b.json
    python -m repro.report diff --rtol 1e-9 \\
        tests/goldens/c5g7-mini-2d.json tests/goldens/c5g7-mini-2d-cmfd.json
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ObservabilityError
from repro.observability.diff import (
    diff_records,
    diff_reports,
    format_diff,
    has_significant,
)
from repro.observability.exporters import load_report, read_record, resolve_exporter
from repro.observability.record import REPORT_KIND


def _is_run_report(path: Path) -> bool:
    try:
        payload = read_record(path)
    except ObservabilityError:
        return True  # JSONL streams fail read_record; load_report sniffs them
    return isinstance(payload, dict) and payload.get("kind") == REPORT_KIND


def _cmd_show(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    sys.stdout.write(resolve_exporter("text").render(report))
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    left, right = Path(args.left), Path(args.right)
    if _is_run_report(left) and _is_run_report(right):
        entries = diff_reports(
            load_report(left), load_report(right), rtol=args.rtol, atol=args.atol
        )
    else:
        entries = diff_records(
            read_record(left), read_record(right), rtol=args.rtol, atol=args.atol
        )
    sys.stdout.write(format_diff(entries))
    return 1 if has_significant(entries) else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    show = sub.add_parser("show", help="pretty-print one run report")
    show.add_argument("report", help="path to a json or jsonl run report")
    show.set_defaults(func=_cmd_show)

    diff = sub.add_parser("diff", help="compare two reports or records")
    diff.add_argument("left")
    diff.add_argument("right")
    diff.add_argument(
        "--rtol", type=float, default=0.0,
        help="relative tolerance for float comparisons (default: bitwise)",
    )
    diff.add_argument(
        "--atol", type=float, default=0.0,
        help="absolute tolerance for float comparisons (default: bitwise)",
    )
    diff.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
