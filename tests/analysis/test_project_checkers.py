"""Project-wide checkers: config/docs/yaml consistency, counter schema.

These run over a synthetic miniature repository (tmp_path) so each rule
can be exercised in both polarities without depending on the real tree —
the real tree's cleanliness is pinned separately by test_repo_clean.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.checkers.config_consistency import (
    ConfigConsistencyChecker,
    _extract_schema,
)
from repro.analysis.checkers.counter_schema import CounterSchemaChecker
from repro.analysis.core import SourceFile

REPO = Path(__file__).resolve().parents[2]

CONFIG_PY = textwrap.dedent(
    '''
    """Schema module."""
    from dataclasses import dataclass, field


    @dataclass
    class CmfdConfig:
        enabled: bool = False
        mesh_x: int = 1


    @dataclass
    class TrackingConfig:
        num_azim: int = 4
        azim_spacing: float = 0.1
        stale_knob: int = 0


    @dataclass
    class SolverConfig:
        max_iterations: int = 50
        cmfd: CmfdConfig = field(default_factory=CmfdConfig)


    @dataclass
    class RunConfig:
        geometry: str = ""
        tracking: TrackingConfig = field(default_factory=TrackingConfig)
        solver: SolverConfig = field(default_factory=SolverConfig)


    _SECTION_TYPES = {"tracking": TrackingConfig, "solver": SolverConfig}
    '''
)

CONSUMER_PY = textwrap.dedent(
    """
    import os

    def run(cfg):
        os.environ.get("REPRO_DOCUMENTED")
        os.environ.get("REPRO_MYSTERY_KNOB")
        return (
            cfg.geometry,
            cfg.tracking.num_azim,
            cfg.tracking.azim_spacing,
            cfg.solver.max_iterations,
            cfg.solver.cmfd.enabled,
            cfg.solver.cmfd.mesh_x,
            cfg.tracking.stale_knob,
        )
    """
)

GOOD_YAML = textwrap.dedent(
    """\
    geometry: demo
    tracking:
      num_azim: 8
      azim_spacing: 0.05
    solver:
      max_iterations: 20
      cmfd:
        enabled: true
        mesh_x: 3
    """
)

README = (
    "Keys: `geometry`, `num_azim`, `azim_spacing`, `max_iterations`,\n"
    "`enabled`, `mesh_x`, and `stale_knob` (deprecated).\n"
    "Set REPRO_DOCUMENTED to toggle the documented thing.\n"
)


def _project(tmp_path, yaml_text=GOOD_YAML, readme=README):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    (tmp_path / "README.md").write_text(readme)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "demo.yaml").write_text(yaml_text)
    files = [
        SourceFile("src/repro/io/config.py", CONFIG_PY),
        SourceFile("src/repro/runtime/consumer.py", CONSUMER_PY),
    ]
    return files, tmp_path


def _rules(findings):
    return sorted(f.rule for f in findings)


class TestConfigConsistency:
    def test_consistent_project_yields_only_env_finding(self, tmp_path):
        files, root = _project(tmp_path)
        findings = list(ConfigConsistencyChecker().check_project(files, root))
        # REPRO_MYSTERY_KNOB is deliberately undocumented in the fixture.
        assert _rules(findings) == ["config-undocumented-env"]
        assert "REPRO_MYSTERY_KNOB" in findings[0].message

    def test_unknown_yaml_key_flagged_with_location(self, tmp_path):
        yaml_text = GOOD_YAML + "  typo_key: 1\n"
        files, root = _project(tmp_path, yaml_text=yaml_text)
        findings = [
            f
            for f in ConfigConsistencyChecker().check_project(files, root)
            if f.rule == "config-unknown-key"
        ]
        (finding,) = findings
        assert "solver.typo_key" in finding.message
        assert finding.path.endswith("demo.yaml")
        assert finding.line == len(yaml_text.splitlines())

    def test_nested_cmfd_keys_are_admissible(self, tmp_path):
        files, root = _project(tmp_path)
        unknown = [
            f
            for f in ConfigConsistencyChecker().check_project(files, root)
            if f.rule == "config-unknown-key"
        ]
        assert unknown == []  # solver.cmfd.enabled parsed as admissible

    def test_dead_key_flagged_on_schema_line(self, tmp_path):
        # Drop the one read of stale_knob: documented but never consumed.
        files, root = _project(tmp_path)
        files[1] = SourceFile(
            "src/repro/runtime/consumer.py",
            CONSUMER_PY.replace("cfg.tracking.stale_knob,\n", ""),
        )
        dead = [
            f
            for f in ConfigConsistencyChecker().check_project(files, root)
            if f.rule == "config-dead-key"
        ]
        (finding,) = dead
        assert "tracking.stale_knob" in finding.message
        assert finding.path == "src/repro/io/config.py"

    def test_undocumented_key_flagged(self, tmp_path):
        readme = README.replace(", and `stale_knob` (deprecated)", "")
        # stale_knob: not in yaml, no longer in the docs -> undocumented.
        files, root = _project(tmp_path, readme=readme)
        undocumented = [
            f
            for f in ConfigConsistencyChecker().check_project(files, root)
            if f.rule == "config-undocumented-key"
        ]
        assert ["tracking.stale_knob"] == [
            f.message.split("'")[1] for f in undocumented
        ]

    def test_yaml_presence_counts_as_documentation(self, tmp_path):
        # num_azim is absent from the README backtick list? It is present;
        # drop it from the README and keep it in the yaml: still fine.
        readme = README.replace("`num_azim`, ", "")
        files, root = _project(tmp_path, readme=readme)
        undocumented = [
            f.message
            for f in ConfigConsistencyChecker().check_project(files, root)
            if f.rule == "config-undocumented-key"
        ]
        assert not any("num_azim" in m for m in undocumented)

    def test_documented_env_var_not_flagged(self, tmp_path):
        files, root = _project(tmp_path)
        env = [
            f.message
            for f in ConfigConsistencyChecker().check_project(files, root)
            if f.rule == "config-undocumented-env"
        ]
        assert not any("REPRO_DOCUMENTED" in m for m in env)

    def test_no_schema_module_skips_key_rules(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (tmp_path / "README.md").write_text("REPRO_DOCUMENTED\n")
        files = [SourceFile("src/repro/runtime/consumer.py", CONSUMER_PY)]
        findings = list(
            ConfigConsistencyChecker().check_project(files, tmp_path)
        )
        assert _rules(findings) == ["config-undocumented-env"]


class TestRealSchema:
    """The key rules run on the shipped schema, not only on fixtures: its
    ``_SECTION_TYPES`` is an annotated assignment, which the extractor
    once skipped, leaving every key rule silent on this repository."""

    def test_real_config_schema_is_extracted(self, tmp_path):
        path = REPO / "src" / "repro" / "io" / "config.py"
        src = SourceFile("src/repro/io/config.py", path.read_text(encoding="utf-8"))
        schema = _extract_schema(src)
        assert schema is not None
        assert {
            "tracking.tracking_cache",
            "decomposition.timeout",
            "solver.cmfd.enabled",
            "output.report",
        } <= schema.admissible
        assert not {"tracking.tracer", "solver.exp_mode"} & schema.admissible
        # Against an empty README every schema key is undocumented.
        (tmp_path / "README.md").write_text("")
        undocumented = {
            f.message.split("'")[1]
            for f in ConfigConsistencyChecker().check_project([src], tmp_path)
            if f.rule == "config-undocumented-key"
        }
        assert undocumented == {key.dotted for key in schema.keys}


COUNTERS_PY = textwrap.dedent(
    """
    COUNTER_SCHEMA = {
        "segments_swept": "segments",
        "halo_bytes": "bytes",
        "ghost_counter": "never wired",
    }
    """
)

INSTRUMENTED_PY = textwrap.dedent(
    """
    def tick(obs, report, text):
        obs.count("segments_swept", 10)
        obs.count("rogue_counter", 1)
        report.counters.add("halo_bytes", 4096)
        text.count("x")          # str.count: one arg, not an increment
        seen = set()
        seen.add("ghost_like")   # set.add: receiver is not a counter set
    """
)


def _counter_files():
    return [
        SourceFile("src/repro/observability/counters.py", COUNTERS_PY),
        SourceFile("src/repro/runtime/instrumented.py", INSTRUMENTED_PY),
    ]


class TestCounterSchema:
    def test_undeclared_and_unincremented_flagged(self, tmp_path):
        findings = list(
            CounterSchemaChecker().check_project(_counter_files(), tmp_path)
        )
        assert _rules(findings) == [
            "counter-undeclared",
            "counter-unincremented",
        ]
        by_rule = {f.rule: f for f in findings}
        assert "rogue_counter" in by_rule["counter-undeclared"].message
        assert by_rule["counter-undeclared"].path.endswith("instrumented.py")
        assert "ghost_counter" in by_rule["counter-unincremented"].message
        assert by_rule["counter-unincremented"].path.endswith("counters.py")

    def test_str_count_and_set_add_invisible(self, tmp_path):
        findings = list(
            CounterSchemaChecker().check_project(_counter_files(), tmp_path)
        )
        assert not any("ghost_like" in f.message for f in findings)
        assert not any('"x"' in f.message for f in findings)

    def test_dict_literal_mention_counts_as_wiring(self, tmp_path):
        # Engine code stages counters in dict literals and flushes them
        # through a variable-name passthrough; the literal is the wiring.
        files = [
            SourceFile("src/repro/observability/counters.py", COUNTERS_PY),
            SourceFile(
                "src/repro/engine/staged.py",
                'def run(obs):\n'
                '    totals = {"ghost_counter": 0, "halo_bytes": 0}\n'
                '    obs.count("segments_swept", 1)\n',
            ),
        ]
        findings = list(CounterSchemaChecker().check_project(files, tmp_path))
        assert findings == []

    def test_no_increment_sites_gates_reverse_rule(self, tmp_path):
        # A run that loads only the schema module must not report every
        # schema entry as dead.
        files = [
            SourceFile("src/repro/observability/counters.py", COUNTERS_PY),
            SourceFile("src/repro/other.py", "x = 1\n"),
        ]
        findings = list(CounterSchemaChecker().check_project(files, tmp_path))
        assert findings == []

    def test_no_schema_module_is_silent(self, tmp_path):
        files = [SourceFile("src/repro/other.py", 'obs.count("x", 1)\n')]
        findings = list(CounterSchemaChecker().check_project(files, tmp_path))
        assert findings == []
