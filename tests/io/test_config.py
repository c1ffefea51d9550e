"""Tests for the validated run configuration."""

import re

import pytest

from repro.constants import DEFAULT_ENGINE_TIMEOUT, LOCK_STALE_SECONDS
from repro.errors import ConfigError
from repro.io.config import (
    CmfdConfig,
    DecompositionConfig,
    OutputConfig,
    RunConfig,
    SolverConfig,
    TrackingConfig,
    config_from_dict,
    load_config,
)


class TestTrackingConfig:
    def test_defaults_match_table4(self):
        cfg = TrackingConfig()
        assert cfg.num_azim == 4
        assert cfg.num_polar == 4
        assert cfg.azim_spacing == 0.5
        assert cfg.polar_spacing == 0.1

    @pytest.mark.parametrize("bad", [0, 2, 3, 6, -4])
    def test_num_azim_multiple_of_4(self, bad):
        with pytest.raises(ConfigError, match="multiple of 4"):
            TrackingConfig(num_azim=bad).validate()

    @pytest.mark.parametrize("bad", [0, 3, -2])
    def test_num_polar_even(self, bad):
        with pytest.raises(ConfigError, match="even"):
            TrackingConfig(num_polar=bad).validate()

    def test_negative_spacing(self):
        with pytest.raises(ConfigError):
            TrackingConfig(azim_spacing=-0.1).validate()

    def test_defaults_are_concrete(self):
        cfg = TrackingConfig()
        assert cfg.tracer == "batch"
        assert cfg.cache_lock_timeout == LOCK_STALE_SECONDS


class TestDecompositionConfig:
    def test_num_domains(self):
        assert DecompositionConfig(2, 2, 2).num_domains == 8

    def test_positive_grid(self):
        with pytest.raises(ConfigError):
            DecompositionConfig(0, 1, 1).validate()

    def test_engine_defaults(self):
        cfg = DecompositionConfig()
        assert cfg.engine == "inproc"
        assert cfg.workers == 0  # one worker per subdomain

    def test_engine_whitelist(self):
        DecompositionConfig(engine="mp").validate()
        DecompositionConfig(engine="inproc").validate()
        DecompositionConfig(engine="mp-async").validate()
        DecompositionConfig(engine="mp-async-sanitize").validate()
        with pytest.raises(ConfigError, match="engine"):
            DecompositionConfig(engine="cuda").validate()

    def test_workers_non_negative(self):
        DecompositionConfig(engine="mp", workers=3).validate()
        with pytest.raises(ConfigError, match="workers"):
            DecompositionConfig(workers=-1).validate()

    def test_timeout_default_is_concrete(self):
        cfg = DecompositionConfig()
        cfg.validate()
        assert cfg.timeout == DEFAULT_ENGINE_TIMEOUT

    def test_timeout_positive(self):
        DecompositionConfig(timeout=30.0).validate()
        DecompositionConfig(timeout=1).validate()

    @pytest.mark.parametrize("bad", [0, 0.0, -5.0])
    def test_timeout_non_positive_rejected(self, bad):
        with pytest.raises(ConfigError, match="timeout"):
            DecompositionConfig(timeout=bad).validate()

    @pytest.mark.parametrize("bad", ["60", True])
    def test_timeout_must_be_a_number(self, bad):
        with pytest.raises(ConfigError, match="decomposition.timeout"):
            config_from_dict({"decomposition": {"timeout": bad}})


class TestSolverConfig:
    def test_storage_methods(self):
        for method in ("EXP", "OTF", "MANAGER"):
            SolverConfig(storage_method=method).validate()
        with pytest.raises(ConfigError, match="storage_method"):
            SolverConfig(storage_method="CACHE").validate()

    def test_sweep_backends(self):
        for backend in ("numpy", "reference"):
            SolverConfig(sweep_backend=backend).validate()
        with pytest.raises(ConfigError, match="sweep_backend"):
            SolverConfig(sweep_backend="numba").validate()

    def test_tolerances_positive(self):
        with pytest.raises(ConfigError):
            SolverConfig(keff_tolerance=0.0).validate()

    def test_iterations_positive(self):
        with pytest.raises(ConfigError):
            SolverConfig(max_iterations=0).validate()


class TestCmfdConfig:
    def test_defaults_are_off(self):
        cfg = SolverConfig()
        assert cfg.cmfd.enabled is False
        cfg.validate()

    def test_mapping_block(self):
        cfg = config_from_dict(
            {"solver": {"cmfd": {"enabled": True, "mesh_x": 9, "mesh_y": 9}}}
        )
        assert cfg.solver.cmfd.enabled is True
        assert (cfg.solver.cmfd.mesh_x, cfg.solver.cmfd.mesh_y) == (9, 9)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_shorthand(self, flag):
        cfg = config_from_dict({"solver": {"cmfd": flag}})
        assert cfg.solver.cmfd.enabled is flag
        # shorthand keeps the default mesh (one cell per root lattice cell)
        assert cfg.solver.cmfd.mesh_x == 0

    def test_null_block_keeps_defaults(self):
        cfg = config_from_dict({"solver": {"cmfd": None}})
        assert cfg.solver.cmfd == CmfdConfig()

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="cmfd"):
            config_from_dict({"solver": {"cmfd": [1, 2]}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"solver": {"cmfd": {"mesh_w": 3}}})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mesh_x": -1},
            {"tolerance": 0.0},
            {"max_inner_iterations": 0},
            {"relaxation": 0.0},
            {"relaxation": 1.1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            CmfdConfig(**kwargs).validate()

    def test_solver_validate_recurses(self):
        with pytest.raises(ConfigError):
            SolverConfig(cmfd=CmfdConfig(relaxation=-0.5)).validate()


class TestOutputConfig:
    def test_log_level_whitelist(self):
        OutputConfig(log_level="debug").validate()
        with pytest.raises(ConfigError):
            OutputConfig(log_level="verbose").validate()


class TestConfigFromDict:
    def test_empty_dict_gives_defaults(self):
        cfg = config_from_dict({})
        assert isinstance(cfg, RunConfig)
        assert cfg.geometry == "c5g7"

    def test_sections_built(self):
        cfg = config_from_dict(
            {
                "geometry": "c5g7-mini",
                "tracking": {"num_azim": 8},
                "solver": {"max_iterations": 10},
            }
        )
        assert cfg.tracking.num_azim == 8
        assert cfg.solver.max_iterations == 10
        # untouched sections keep defaults
        assert cfg.decomposition.num_domains == 1

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"solvr": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            config_from_dict({"solver": {"iterations": 5}})

    def test_none_section_means_defaults(self):
        cfg = config_from_dict({"solver": None})
        assert cfg.solver.max_iterations == SolverConfig().max_iterations

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2])  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "data,key",
        [
            ({"tracking": {"axial_method": "OTF"}}, "axial_method"),
            ({"solver": {"num_groups": 7}}, "num_groups"),
            ({"load_balance": {"subdomains_per_node": 10}}, "load_balance"),
            ({"decomposition": {"pin_workers": True}}, "pin_workers"),
        ],
        ids=["axial_method", "num_groups", "load_balance", "pin_workers"],
    )
    def test_removed_keys_are_unknown(self, data, key):
        with pytest.raises(ConfigError, match=f"unknown .*{key}"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "section,key",
        [
            ("decomposition", "engine"),
            ("solver", "sweep_backend"),
            ("tracking", "tracer"),
        ],
    )
    def test_auto_is_not_a_selection(self, section, key):
        with pytest.raises(ConfigError, match=f"{key} must be one of .*'auto'"):
            config_from_dict({section: {key: "auto"}})

    def test_to_dict_roundtrip_keys(self):
        cfg = config_from_dict({"tracking": {"num_azim": 8}})
        data = cfg.to_dict()
        assert data["tracking"]["num_azim"] == 8


class TestLoadConfig:
    def test_load_from_yaml_file(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text(
            "geometry: c5g7-mini\n"
            "tracking:\n  num_azim: 8\n  azim_spacing: 0.25\n"
            "decomposition:\n  nx: 2\n  ny: 2\n"
            "solver:\n  storage_method: OTF\n"
        )
        cfg = load_config(path)
        assert cfg.geometry == "c5g7-mini"
        assert cfg.tracking.azim_spacing == 0.25
        assert cfg.decomposition.num_domains == 4
        assert cfg.solver.storage_method == "OTF"

    def test_invalid_values_rejected_at_load(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("tracking:\n  num_azim: 6\n")
        with pytest.raises(ConfigError):
            load_config(path)


class TestTypedValues:
    """Every value is checked against its field's declared type, so a
    mistyped value is refused by its dotted key instead of crashing."""

    @pytest.mark.parametrize(
        "data,key",
        [
            ({"solver": {"keff_tolerance": "1e-3"}}, "solver.keff_tolerance"),
            ({"solver": {"keff_tolerance": True}}, "solver.keff_tolerance"),
            ({"solver": {"max_iterations": 2.5}}, "solver.max_iterations"),
            ({"tracking": {"num_azim": "8"}}, "tracking.num_azim"),
            ({"tracking": {"tracking_cache": "yes"}}, "tracking.tracking_cache"),
            ({"decomposition": {"nz": "2"}}, "decomposition.nz"),
            ({"output": {"log_level": 3}}, "output.log_level"),
            ({"solver": {"cmfd": {"mesh_x": "3"}}}, "solver.cmfd.mesh_x"),
            (
                {"scenarios": [{"name": "s", "perturbations": [
                    {"kind": "density", "material": "UO2", "factor": "1.1"}
                ]}]},
                "scenarios[0].perturbations[0].factor",
            ),
        ],
        ids=[
            "str-for-float", "bool-for-float", "float-for-int", "str-for-int",
            "str-for-bool", "str-for-grid", "int-for-str", "nested-cmfd",
            "scenario-factor",
        ],
    )
    def test_mistyped_value_refused_by_key(self, data, key):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_dict(data)

    def test_int_accepted_for_float(self):
        cfg = config_from_dict({"solver": {"keff_tolerance": 1}, "decomposition": {"timeout": 60}})
        assert cfg.solver.keff_tolerance == 1
        assert cfg.decomposition.timeout == 60

    def test_optional_string_takes_null(self):
        assert config_from_dict({"output": {"report": None}}).output.report is None
