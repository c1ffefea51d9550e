"""``run.py compare A.json B.json``: two ledger records side by side.

One row per workload x end-to-end metric with both medians and quartiles,
the regression bound ``BENCHMARK.json`` fixes for the metric, B's median
as a ratio of A's (the base is always A, and is printed), and a verdict:

* ``unresolved`` — the host fingerprints differ, or the run-to-run spread
  of either side exceeds the bound while the two interquartile ranges
  overlap: the records cannot tell a change from noise;
* ``worse`` / ``better`` — B's median is beyond the bound on that side of
  A's (every end-to-end metric is lower-is-better), and for ``better``
  the interquartile ranges do not overlap;
* ``same`` — anything else.

Counts marked exact must be identical; any that differ are listed.
"""

from __future__ import annotations

from typing import Any

import host
import metrics


def verdict(a: dict[str, Any], b: dict[str, Any], bound: float, same_host: bool) -> str:
    """The verdict for one metric from its two summaries."""
    if not same_host:
        return "unresolved"
    overlap = a["q1"] <= b["q3"] and b["q1"] <= a["q3"]
    spread = max((a["q3"] - a["q1"]) / a["median"], (b["q3"] - b["q1"]) / b["median"])
    if spread > bound and overlap:
        return "unresolved"
    change = b["median"] / a["median"] - 1.0
    if change > bound:
        return "worse"
    if change < -bound and not overlap:
        return "better"
    return "same"


def render(a: dict[str, Any], b: dict[str, Any], benchmark: dict[str, Any]) -> str:
    bounds = {row["name"]: row["bound"] for row in benchmark["end_to_end"]}
    differing = [
        key for key in host.COMPARABLE_KEYS if a["host"].get(key) != b["host"].get(key)
    ]
    lines = [
        f"A: git {a['host']['git_rev'][:12]}  load {a['host']['loadavg']}",
        f"B: git {b['host']['git_rev'][:12]}  load {b['host']['loadavg']}",
    ]
    if differing:
        lines.append(f"host fingerprints differ in {', '.join(differing)}: "
                     "every verdict is unresolved")
    header = (f"{'workload':<14s}{'metric':<13s}{'A median [q1, q3] n':<36s}"
              f"{'B median [q1, q3] n':<36s}{'B/A (base A)':<24s}{'bound':<7s}verdict")
    lines += ["", header, "-" * len(header)]

    def cell(row: dict[str, Any]) -> str:
        return f"{row['median']:.4f} [{row['q1']:.4f}, {row['q3']:.4f}] {row['n']}"

    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in metrics.END_TO_END:
            ra, rb = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if ra is None or rb is None:
                continue
            ratio = f"{rb['median'] / ra['median']:.3f} of {ra['median']:.4f} {ra['unit']}"
            lines.append(
                f"{name:<14s}{metric:<13s}{cell(ra):<36s}{cell(rb):<36s}{ratio:<24s}"
                f"{bounds[metric]:<7.2f}{verdict(ra, rb, bounds[metric], not differing)}"
            )
        lines.append(
            f"{name:<14s}{'failed_frac':<13s}{wa['failed_frac']:<36.4f}"
            f"{wb['failed_frac']:<36.4f}{'':<24s}{'0':<7s}"
            f"{'worse' if wb['failed_frac'] > wa['failed_frac'] else 'same'}"
        )
        for metric in wa["exact"]:
            va = wa["per_layer"].get(metric, {}).get("value")
            vb = wb["per_layer"].get(metric, {}).get("value")
            if va != vb:
                lines.append(f"{name:<14s}exact count {metric} differs: A {va}, B {vb}")
        if wa["identity"] != wb["identity"]:
            lines.append(f"{name:<14s}result bits (keff_hex/flux_sha256) differ between A and B")
    return "\n".join(lines)
