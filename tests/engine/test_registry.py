"""Engine registry, selection policy, and engine-timeout resolution."""

import pytest

from repro.constants import DEFAULT_ENGINE_TIMEOUT
from repro.engine import (
    DEFAULT_ENGINE,
    AsyncMpEngine,
    InprocEngine,
    MpEngine,
    SanitizedAsyncMpEngine,
    engine_names,
    resolve_engine,
    resolve_engine_timeout,
)
from repro.errors import ConfigError


class TestResolution:
    def test_default_is_inproc(self):
        assert isinstance(resolve_engine(), InprocEngine)
        assert DEFAULT_ENGINE == "inproc"

    def test_explicit_argument(self):
        assert isinstance(resolve_engine("mp"), MpEngine)
        assert isinstance(resolve_engine("inproc"), InprocEngine)

    def test_argument_beats_env_var(self, monkeypatch):
        """``REPRO_ENGINE`` selects nothing: the name alone does."""
        monkeypatch.setenv("REPRO_ENGINE", "mp")
        assert isinstance(resolve_engine("inproc"), InprocEngine)
        assert isinstance(resolve_engine(), InprocEngine)

    def test_instance_passthrough(self):
        engine = MpEngine(workers=3)
        assert resolve_engine(engine) is engine

    def test_name_normalised(self):
        assert isinstance(resolve_engine("  MP "), MpEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown execution engine"):
            resolve_engine("cuda")

    def test_workers_forwarded(self):
        engine = resolve_engine("mp", workers=2)
        assert isinstance(engine, MpEngine)
        assert engine.workers == 2

    def test_names_list_default_first(self):
        names = engine_names()
        assert names[0] == "inproc"
        assert "mp" in names
        assert "mp-async" in names
        assert "mp-async-sanitize" in names

    def test_async_engines_resolve_by_name(self):
        assert isinstance(resolve_engine("mp-async"), AsyncMpEngine)
        assert isinstance(
            resolve_engine("mp-async-sanitize"), SanitizedAsyncMpEngine
        )

    @pytest.mark.parametrize("name", ["mp", "mp-async"])
    def test_timeout_forwarded(self, name):
        engine = resolve_engine(name, workers=2, timeout=42.0)
        assert engine.workers == 2
        assert engine.timeout == 42.0

    def test_inproc_ignores_process_options(self):
        engine = resolve_engine("inproc", workers=4, timeout=1.0)
        assert isinstance(engine, InprocEngine)


class TestTimeoutResolution:
    """The timeout is the config's (or the CLI's) number, else the
    built-in default; ``REPRO_ENGINE_TIMEOUT`` is read by nothing."""

    def test_default_without_env(self):
        assert resolve_engine_timeout() == DEFAULT_ENGINE_TIMEOUT

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TIMEOUT", "123.5")
        assert resolve_engine_timeout(7.0) == 7.0

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_explicit_rejected(self, bad):
        with pytest.raises(ConfigError, match="must be positive"):
            resolve_engine_timeout(bad)

    def test_engines_resolve_timeout_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_TIMEOUT", "55")
        assert MpEngine().timeout == DEFAULT_ENGINE_TIMEOUT
        assert AsyncMpEngine().timeout == DEFAULT_ENGINE_TIMEOUT
        assert AsyncMpEngine(timeout=9.0).timeout == 9.0


class TestWorkerResolution:
    @pytest.mark.parametrize(
        "requested,domains,expected",
        [
            (None, 4, 4),  # one worker per domain by default
            (2, 4, 2),
            (8, 4, 4),  # never more workers than domains
            (1, 4, 1),
            (None, 1, 1),
        ],
    )
    def test_clamped_to_domains(self, requested, domains, expected):
        assert MpEngine(workers=requested).resolve_workers(domains) == expected
