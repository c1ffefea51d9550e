"""The repro.errors taxonomy and fail-fast config validation paths.

Two contracts: every library failure mode derives from ``ReproError`` (so
callers can catch library errors without masking programming errors), and
unknown name-table/config keys raise *documented* error types — never a
raw ``KeyError`` escaping a name table.
"""

import pytest

import repro.errors as errors
from repro.engine.registry import engine_names, resolve_engine
from repro.errors import (
    AnalysisError,
    ConfigError,
    ReproError,
    SanitizerError,
    SolverError,
)
from repro.io.config import DecompositionConfig, ENGINES, config_from_dict
from repro.solver.backends import get_backend

LEAF_ERRORS = [
    errors.ConfigError,
    errors.GeometryError,
    errors.TrackingError,
    errors.SolverError,
    errors.DecompositionError,
    errors.HardwareModelError,
    errors.CommunicationError,
    errors.AnalysisError,
    errors.SanitizerError,
]


class TestHierarchy:
    @pytest.mark.parametrize("exc", LEAF_ERRORS)
    def test_every_error_derives_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_repro_error_does_not_mask_programming_errors(self):
        assert not issubclass(TypeError, ReproError)
        assert not issubclass(KeyError, ReproError)

    def test_analysis_and_sanitizer_errors_are_catchable_as_repro(self):
        with pytest.raises(ReproError):
            raise AnalysisError("lint framework failure")
        with pytest.raises(ReproError):
            raise SanitizerError("bad fault spec")


class TestUnknownEngineKeys:
    def test_resolve_engine_raises_config_error_not_keyerror(self):
        with pytest.raises(ConfigError, match="unknown execution engine"):
            resolve_engine("gpu-cluster")

    def test_decomposition_config_rejects_unknown_engine(self):
        cfg = DecompositionConfig(engine="gpu-cluster")
        with pytest.raises(ConfigError, match="engine must be one of"):
            cfg.validate()

    def test_config_engines_matches_registry(self):
        # Whatever the CLI advertises must actually resolve.
        assert set(ENGINES) == set(engine_names())
        for name in ENGINES:
            assert resolve_engine(name) is not None


class TestUnknownBackendKeys:
    def test_get_backend_raises_solver_error_not_keyerror(self):
        with pytest.raises(SolverError, match="unknown sweep backend"):
            get_backend("cuda")


class TestUnknownTracerKeys:
    def test_tracking_config_rejects_unknown_tracer(self):
        """One 2D tracer runs: a config naming any tracer names an
        unknown key."""
        message = r"unknown keys in section 'tracking': \['tracer'\]"
        with pytest.raises(ConfigError, match=message):
            config_from_dict({"tracking": {"tracer": "nonsuch"}})
