"""Rot protection: the fast example scripts must run to completion.

Each example is executed as a subprocess (the way a user runs it); only
the quick ones are exercised here to keep the suite snappy — the longer
examples are covered indirectly by the integration tests that share their
code paths.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "scaling_study.py",
    "load_balancing.py",
    "track_management.py",
]


@pytest.mark.slow
@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_all_examples_present():
    names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert {
        "quickstart.py",
        "c5g7_full_core.py",
        "track_management.py",
        "load_balancing.py",
        "scaling_study.py",
        "decomposed_run.py",
        "c5g7_3d_decomposed.py",
        "fixed_source_detector.py",
    } <= names


def test_examples_have_docstrings_and_guards():
    for path in EXAMPLES_DIR.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert text.lstrip().startswith(("#!", '"""')), path.name
        assert 'if __name__ == "__main__":' in text, path.name
