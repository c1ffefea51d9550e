"""Keep each worker loop written once, and audited where it ships.

The sanitized engines fork the very function objects ``mp`` / ``mp-async``
fork and differ only in what the child-side ``_worker_view`` hook hands
them; a second loop body in ``sanitize.py`` or an instrumentation branch
in the shipped loops is the twin growing back. The last test is what the
arrangement buys: a bug seeded in the *shipped* loop is caught by the
*dynamic* detector.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

from repro.engine import async_mp, mp, sanitize
from repro.engine.sanitize import SanitizedAsyncMpEngine, SanitizedMpEngine
from repro.errors import SanitizerError
from tests.engine.test_equivalence import pin_lattice, solve_2d

__all__ = ["pin_lattice"]  # re-exported fixture

ENGINE_SRC = Path(mp.__file__).parent
PAIRS = (
    (mp.MpEngine, SanitizedMpEngine, "_worker_loop"),
    (async_mp.AsyncMpEngine, SanitizedAsyncMpEngine, "_async_worker_loop"),
)


def test_sanitizer_holds_no_loop_of_its_own():
    tree = ast.parse((ENGINE_SRC / "sanitize.py").read_text(encoding="utf-8"))
    assert not [n.lineno for n in ast.walk(tree) if isinstance(n, ast.While)]


@pytest.mark.parametrize("plain, sanitized, loop", PAIRS)
def test_sanitized_engine_forks_the_shipped_loop(plain, sanitized, loop):
    assert sanitized.solve is plain.solve  # one solve(), so one fork site
    targets = re.findall(r"target=(\w+)", inspect.getsource(plain.solve))
    assert targets == [loop]
    assert not hasattr(sanitize, loop)


@pytest.mark.parametrize("plain, sanitized, loop", PAIRS)
def test_plain_view_is_the_identity(plain, sanitized, loop):
    fields, sync = {"phi": object()}, object()
    got_fields, got_sync, report = plain()._worker_view(2, 0, fields, sync)
    assert got_fields is fields and got_sync is sync and report == {}
    assert sanitized._worker_view is not plain._worker_view


@pytest.mark.parametrize("name", ["mp.py", "async_mp.py"])
def test_shipped_loops_know_nothing_of_the_sanitizer(name):
    text = (ENGINE_SRC / name).read_text(encoding="utf-8")
    assert not re.findall(r"fault|inject|TrackedField|AccessLog", text)


def test_dynamic_detector_sees_a_mutant_of_the_shipped_loop(pin_lattice, monkeypatch):
    """The static corpus's whole-array halo write, seeded into the shipped
    ``mp._worker_loop`` at test time and run under ``mp-sanitize``."""
    source = inspect.getsource(mp._worker_loop)
    old = "halo[idx] = sweeper.psi_out_last[tracks, dirs]"
    assert source.count(old) == 1, "corpus drift: re-seed the mutant"
    namespace = dict(vars(mp))
    exec(source.replace(old, "halo[:] = 0.0"), namespace)
    monkeypatch.setattr(mp, "_worker_loop", namespace["_worker_loop"])
    with pytest.raises(SanitizerError, match=r"same-epoch-overlap.*'halo'"):
        solve_2d(pin_lattice, "mp-sanitize", workers=2)
