"""Shared benchmark helpers.

Every ``bench_*.py`` module regenerates one of the paper's tables,
figures or ablations, each a row of DESIGN.md's experiment index
(``tests/analysis/test_repo_clean.py`` keeps the two in step). Besides
the pytest-benchmark timing, each writes its reproduced rows/series to
``benchmarks/results/<name>.txt`` so the data survives output capturing,
and prints it for ``-s`` runs. A speed claim about this code cites the
ledger (``benchmarks/e2e``, workloads named in ``BENCHMARK.json``), not
these timings.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


class Reporter:
    """Collects table lines and persists them per experiment."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lines: list[str] = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, headers: list[str], rows: list[list], widths: list[int] | None = None) -> None:
        widths = widths or [max(12, len(h) + 2) for h in headers]
        self.line("".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            self.line("".join(str(c)[: w - 1].ljust(w) for c, w in zip(row, widths)))

    def flush(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        text = "\n".join(self.lines) + "\n"
        (RESULTS_DIR / f"{self.name}.txt").write_text(text, encoding="utf-8")
        print(f"\n===== {self.name} =====")
        print(text)


@pytest.fixture()
def reporter(request):
    rep = Reporter(request.node.name.replace("[", "_").replace("]", ""))
    yield rep
    rep.flush()
