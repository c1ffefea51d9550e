"""The shipped tree passes its own linter, and its inventory is
consistent: CI names only files that exist, every benchmark is indexed,
and the only benchmark records are the ledger's."""

import re
import subprocess
import sys
from pathlib import Path

from repro.analysis.core import analyze_paths

REPO = Path(__file__).resolve().parents[2]


def test_src_tree_is_clean():
    findings = analyze_paths([REPO / "src"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_benchmarks_tree_is_clean():
    """Benchmarks write records through the exporters, so the metrics-io
    rule (and everything else) holds there too."""
    findings = analyze_paths([REPO / "benchmarks"])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exits_zero_on_src():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src", "benchmarks"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def _ci_run_commands() -> list[str]:
    """The text of every ``run:`` step in the CI workflow, folded
    (``run: >``) continuation lines included."""
    commands: list[str] = []
    indent = None
    for line in (REPO / ".github/workflows/ci.yml").read_text().splitlines():
        stripped = line.lstrip()
        depth = len(line) - len(stripped)
        if stripped.startswith(("run:", "- run:")):
            indent = depth
            commands.append(stripped.split("run:", 1)[1])
        elif indent is not None and stripped and depth > indent:
            commands[-1] += " " + stripped
        else:
            indent = None
    return commands


def test_ci_runs_only_paths_that_exist():
    """No lane can point at a deleted test or benchmark."""
    commands = _ci_run_commands()
    paths = {
        path
        for command in commands
        for path in re.findall(r"\b(?:tests|benchmarks)/[\w./-]*\w", command)
    }
    assert paths, commands
    assert sorted(p for p in paths if not (REPO / p).exists()) == []


def test_every_bench_is_in_the_experiment_index():
    design = (REPO / "DESIGN.md").read_text()
    index = design.split("## Experiment index", 1)[1].split("\n## ", 1)[0]
    benches = sorted(p.name for p in (REPO / "benchmarks").glob("bench_*.py"))
    assert benches
    assert [b for b in benches if f"benchmarks/{b}" not in index] == []


def test_only_the_ledger_keeps_json_records():
    """Timing this code is the ledger's job (``benchmarks/e2e``); no
    other benchmark keeps a JSON record."""
    ledger = REPO / "benchmarks" / "e2e"
    stray = [
        p.relative_to(REPO)
        for p in (REPO / "benchmarks").rglob("*.json")
        if ledger not in p.parents
    ]
    assert stray == []
