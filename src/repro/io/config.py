"""Validated run configuration mirroring ANT-MOC's ``config.yaml``.

The paper's stage (1), "Read Configuration", consumes a YAML file holding
spatial-decomposition parameters and track-generation parameters (Sec. 3.1).
:class:`RunConfig` is the validated in-memory form consumed by the five-stage
pipeline in :mod:`repro.runtime`.

A :class:`RunConfig` is the whole input of a solve: every setting that can
change a result is one of its fields, CLI flags override fields before the
config is hashed, and nothing else (no environment variable) is read. A
run report's ``config_hash`` therefore names what ran.
"""

from __future__ import annotations

import functools
import typing
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Any, Mapping

from repro.constants import (
    DEFAULT_ENGINE_TIMEOUT,
    DEFAULT_KEFF_TOL,
    DEFAULT_RESIDENT_MEMORY_BYTES,
    DEFAULT_SOURCE_TOL,
)
from repro.errors import ConfigError
from repro.io import yamlish

#: Track-storage strategies (paper Sec. 4.1 / Fig. 9).
TRACK_STORAGE_METHODS = ("EXP", "OTF", "MANAGER", "CCM")

#: Sweep-kernel backends: the fused ``numpy`` kernel and its ``reference``
#: oracle.
SWEEP_BACKENDS = ("numpy", "reference")

#: Execution engines for decomposed solves (:mod:`repro.engine`):
#: ``inproc`` is the deterministic single-process simulator, ``mp`` runs
#: subdomains on real OS worker processes over shared memory with
#: barrier-phased halo exchange, ``mp-async`` replaces the barriers with
#: per-edge epoch-tagged halo mailboxes (dependency-driven, communication
#: overlapped with compute), and the ``*-sanitize`` variants run the same
#: schedules under the shm race sanitizer (identical results, every shared
#: access audited against the protocol).
ENGINES = ("inproc", "mp", "mp-sanitize", "mp-async", "mp-async-sanitize")

#: Run-report exporter formats (:mod:`repro.observability.exporters`).
#: A report spec is a bare format, ``format:path``, or a bare path whose
#: suffix selects the format (unknown suffixes mean ``text``).
REPORT_FORMATS = ("json", "jsonl", "text")

#: Declarative perturbation kinds admitted by a ``scenarios:`` block.
#: All three are tracking-invariant: they change cross-sections only, so
#: every scenario state shares one track laydown and SweepPlan layout.
PERTURBATION_KINDS = ("scale_xs", "substitute", "density")

#: Reaction channels a ``scale_xs`` perturbation may target.
PERTURBATION_REACTIONS = ("total", "scatter", "fission", "nu_fission", "all")


@dataclass(frozen=True)
class TrackingConfig:
    """Track-generation parameters (Table 4 rows)."""

    num_azim: int = 4
    num_polar: int = 4
    azim_spacing: float = 0.5
    polar_spacing: float = 0.1
    #: Reuse tracking products from the content-addressed cache.
    tracking_cache: bool = False
    #: Cache directory override (default: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    cache_dir: str | None = None

    def validate(self) -> None:
        if self.num_azim < 4 or self.num_azim % 4 != 0:
            raise ConfigError(
                f"num_azim must be a positive multiple of 4 (got {self.num_azim}); "
                "the L2 mapping relies on four-fold azimuthal symmetry"
            )
        if self.num_polar < 1 or self.num_polar % 2 != 0:
            raise ConfigError(f"num_polar must be a positive even number (got {self.num_polar})")
        if self.azim_spacing <= 0.0:
            raise ConfigError(f"azim_spacing must be positive (got {self.azim_spacing})")
        if self.polar_spacing <= 0.0:
            raise ConfigError(f"polar_spacing must be positive (got {self.polar_spacing})")


@dataclass(frozen=True)
class DecompositionConfig:
    """Spatial-decomposition grid (Sec. 3.2): cuboid subdomains in 3D."""

    nx: int = 1
    ny: int = 1
    nz: int = 1
    #: Execution engine for decomposed solves (see :data:`ENGINES`).
    engine: str = "inproc"
    #: Worker processes for the ``mp`` engine; 0 means one per subdomain.
    workers: int = 0
    #: Engine wait timeout in seconds (barrier phases, mailbox waits).
    timeout: float = DEFAULT_ENGINE_TIMEOUT

    @property
    def num_domains(self) -> int:
        return self.nx * self.ny * self.nz

    def validate(self) -> None:
        if min(self.nx, self.ny, self.nz) < 1:
            raise ConfigError(f"domain grid must be positive in each axis (got {self.nx}x{self.ny}x{self.nz})")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES} (got {self.engine!r})")
        if self.workers < 0:
            raise ConfigError(f"workers must be >= 0 (got {self.workers})")
        if not self.timeout > 0:
            raise ConfigError(f"decomposition.timeout must be positive (got {self.timeout})")


@dataclass(frozen=True)
class CmfdConfig:
    """CMFD acceleration settings (``solver.cmfd`` block) — the one type
    the solvers take (:func:`repro.solver.cmfd.coerce_cmfd`)."""

    enabled: bool = False
    #: Coarse cells along x/y; 0 means one per root-lattice cell.
    mesh_x: int = 0
    mesh_y: int = 0
    #: Coarse layers along z; 0 means one per global axial layer (3D only).
    mesh_z: int = 0
    #: Relative tolerance on the coarse eigenvalue and flux iteration.
    tolerance: float = 1.0e-12
    #: Inner power-iteration cap; exhaustion skips the acceleration step.
    max_inner_iterations: int = 20000
    #: Prolongation under-relaxation in (0, 1]: factors become
    #: ``1 + relaxation (f - 1)``. Undamped CMFD overcorrects on optically
    #: thick coarse cells (the classic period-2 divergence). With one
    #: coarse cell per assembly on the C5G7 quarter core, 0.5 was measured
    #: converging at 3 and 5 pins per assembly but diverging at 9 and 17,
    #: where 0.25 converges; see ROADMAP item 1.
    relaxation: float = 0.5

    def validate(self) -> None:
        if min(self.mesh_x, self.mesh_y, self.mesh_z) < 0:
            raise ConfigError("solver.cmfd mesh dimensions must be non-negative")
        if not self.tolerance > 0:
            raise ConfigError(
                f"solver.cmfd.tolerance must be positive (got {self.tolerance!r})"
            )
        if self.max_inner_iterations < 1:
            raise ConfigError("solver.cmfd.max_inner_iterations must be >= 1")
        if not 0.0 < self.relaxation <= 1.0:
            raise ConfigError(
                f"solver.cmfd.relaxation must be in (0, 1] (got {self.relaxation})"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Transport-solve controls (stage 4)."""

    max_iterations: int = 200
    keff_tolerance: float = DEFAULT_KEFF_TOL
    source_tolerance: float = DEFAULT_SOURCE_TOL
    storage_method: str = "MANAGER"
    resident_memory_bytes: int = DEFAULT_RESIDENT_MEMORY_BYTES
    #: Sweep-kernel backend (see :data:`SWEEP_BACKENDS`).
    sweep_backend: str = "numpy"
    #: CMFD acceleration block (see :class:`CmfdConfig`); also accepts a
    #: bare boolean in config files as shorthand for ``{enabled: ...}``.
    cmfd: CmfdConfig = field(default_factory=CmfdConfig)

    def validate(self) -> None:
        self.cmfd.validate()
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be >= 1 (got {self.max_iterations})")
        if self.keff_tolerance <= 0 or self.source_tolerance <= 0:
            raise ConfigError("convergence tolerances must be positive")
        if self.storage_method not in TRACK_STORAGE_METHODS:
            raise ConfigError(
                f"storage_method must be one of {TRACK_STORAGE_METHODS} (got {self.storage_method!r})"
            )
        if self.resident_memory_bytes < 0:
            raise ConfigError("resident_memory_bytes must be non-negative")
        if self.sweep_backend not in SWEEP_BACKENDS:
            raise ConfigError(
                f"sweep_backend must be one of {SWEEP_BACKENDS} (got {self.sweep_backend!r})"
            )


@dataclass(frozen=True)
class OutputConfig:
    """Stage-5 output controls."""

    fission_rates_path: str | None = None
    vtk_path: str | None = None
    log_level: str = "INFO"
    #: Run-report spec (see :data:`REPORT_FORMATS`); ``None`` writes no
    #: report unless the ``--report`` CLI flag asks for one.
    report: str | None = None

    def validate(self) -> None:
        if self.log_level.upper() not in ("DEBUG", "INFO", "WARNING", "ERROR"):
            raise ConfigError(f"unknown log_level {self.log_level!r}")
        if self.report is not None:
            if not self.report.strip():
                raise ConfigError("output.report must be a non-empty spec string")
            head, sep, tail = self.report.partition(":")
            if sep and head in REPORT_FORMATS and not tail:
                raise ConfigError(
                    f"output.report {self.report!r} names a format but an empty path"
                )


@dataclass(frozen=True)
class PerturbationConfig:
    """One declarative cross-section perturbation inside a scenario.

    ``scale_xs`` multiplies one reaction channel of the named material by
    ``factor`` (restricted to ``groups`` when given); ``substitute``
    replaces the named material with ``replacement`` from the geometry's
    library; ``density`` scales *every* channel uniformly (a
    number-density / moderator-density branch). All kinds are
    geometry-invariant for tracking.
    """

    kind: str = "scale_xs"
    material: str = ""
    reaction: str = "all"
    factor: float = 1.0
    #: Energy groups the scaling applies to; empty means all groups.
    groups: tuple = ()
    #: Library material name replacing ``material`` (``substitute`` only).
    replacement: str | None = None

    def validate(self, where: str) -> None:
        if self.kind not in PERTURBATION_KINDS:
            raise ConfigError(
                f"{where}: kind must be one of {PERTURBATION_KINDS} (got {self.kind!r})"
            )
        if not isinstance(self.material, str) or not self.material:
            raise ConfigError(f"{where}: material must be a non-empty material name")
        if self.reaction not in PERTURBATION_REACTIONS:
            raise ConfigError(
                f"{where}: reaction must be one of {PERTURBATION_REACTIONS} "
                f"(got {self.reaction!r})"
            )
        if not self.factor > 0:
            raise ConfigError(f"{where}: factor must be a positive number (got {self.factor!r})")
        if not isinstance(self.groups, tuple) or not all(
            isinstance(g, int) and not isinstance(g, bool) and g >= 0 for g in self.groups
        ):
            raise ConfigError(
                f"{where}: groups must be non-negative group indices (got {self.groups!r})"
            )
        if self.kind == "substitute":
            if not isinstance(self.replacement, str) or not self.replacement:
                raise ConfigError(f"{where}: substitute requires a replacement material name")
        elif self.replacement is not None:
            raise ConfigError(f"{where}: replacement is only valid with kind 'substitute'")
        if self.kind != "scale_xs" and (self.reaction != "all" or self.groups):
            raise ConfigError(
                f"{where}: reaction/groups selection is only valid with kind 'scale_xs'"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """One named perturbed state of the ``scenarios:`` block."""

    name: str = ""
    perturbations: tuple = ()

    def validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError("every scenario needs a non-empty name")
        if not isinstance(self.perturbations, tuple):
            raise ConfigError(f"scenario {self.name!r}: perturbations must be a sequence")
        for i, pert in enumerate(self.perturbations):
            if not isinstance(pert, PerturbationConfig):
                raise ConfigError(
                    f"scenario {self.name!r}: perturbation {i} must be a mapping"
                )
            pert.validate(f"scenario {self.name!r} perturbation {i}")


@dataclass(frozen=True)
class RunConfig:
    """Complete, validated ANT-MOC run configuration."""

    geometry: str = "c5g7"
    tracking: TrackingConfig = field(default_factory=TrackingConfig)
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    #: Perturbed states solved by ``solve-batch`` (empty for plain runs).
    scenarios: tuple = ()

    def validate(self) -> "RunConfig":
        self.tracking.validate()
        self.decomposition.validate()
        self.solver.validate()
        self.output.validate()
        if not isinstance(self.scenarios, tuple):
            raise ConfigError("scenarios must be a sequence of scenario mappings")
        names: set[str] = set()
        for scenario in self.scenarios:
            if not isinstance(scenario, ScenarioConfig):
                raise ConfigError("every scenarios entry must be a mapping")
            scenario.validate()
            if scenario.name in names:
                raise ConfigError(f"duplicate scenario name {scenario.name!r}")
            names.add(scenario.name)
        return self

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        # An empty scenario list must hash identically to a pre-scenario
        # config: every stored manifest/report key stays stable.
        if not data.get("scenarios"):
            data.pop("scenarios", None)
        return data


_SECTION_TYPES: dict[str, type] = {
    "tracking": TrackingConfig,
    "decomposition": DecompositionConfig,
    "solver": SolverConfig,
    "output": OutputConfig,
}


#: Each schema dataclass's declared field types, resolved once.
_declared_types = functools.cache(typing.get_type_hints)


def _admits(kind: Any, value: Any) -> bool:
    """Whether ``value`` is of the declared ``kind``: a ``bool`` is never
    a number, and an ``int`` is accepted where a ``float`` is declared."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _build_section(cls: type, data: Mapping[str, Any], section: str) -> Any:
    """``cls`` from ``data``, every value checked against its field's
    declared type so a mistyped value is refused by its dotted key."""
    declared = _declared_types(cls)
    unknown = set(data) - set(declared)
    if unknown:
        raise ConfigError(f"unknown keys in section {section!r}: {sorted(unknown)}")
    data = dict(data)
    if cls is SolverConfig and "cmfd" in data:
        cmfd = data["cmfd"]
        if isinstance(cmfd, bool):
            cmfd = {"enabled": cmfd}
        if cmfd is None:
            cmfd = {}
        if not isinstance(cmfd, Mapping):
            raise ConfigError("solver.cmfd must be a mapping or a boolean")
        data["cmfd"] = _build_section(CmfdConfig, cmfd, "solver.cmfd")
    for key, value in data.items():
        kinds = typing.get_args(declared[key]) or (declared[key],)
        if not any(_admits(kind, value) for kind in kinds):
            names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ConfigError(f"{section}.{key} must be {names} (got {value!r})")
    return cls(**data)


def _build_scenarios(value: Any) -> tuple:
    """The ``scenarios:`` block: a sequence of scenario mappings."""
    if value is None:
        return ()
    if isinstance(value, (str, bytes, Mapping)) or not hasattr(value, "__iter__"):
        raise ConfigError("scenarios must be a sequence of scenario mappings")
    scenarios = []
    for i, item in enumerate(value):
        if not isinstance(item, Mapping):
            raise ConfigError(f"scenarios[{i}] must be a mapping")
        item = dict(item)
        perts = item.pop("perturbations", [])
        unknown = set(item) - {"name"}
        if unknown:
            raise ConfigError(f"unknown keys in scenarios[{i}]: {sorted(unknown)}")
        if isinstance(perts, (str, bytes, Mapping)) or not hasattr(perts, "__iter__"):
            raise ConfigError(f"scenarios[{i}].perturbations must be a sequence")
        built = []
        for j, pert in enumerate(perts):
            if not isinstance(pert, Mapping):
                raise ConfigError(f"scenarios[{i}].perturbations[{j}] must be a mapping")
            pert = dict(pert)
            if "groups" in pert:
                groups = pert["groups"]
                if isinstance(groups, (str, bytes)) or not hasattr(groups, "__iter__"):
                    raise ConfigError(
                        f"scenarios[{i}].perturbations[{j}].groups must be a sequence"
                    )
                pert["groups"] = tuple(groups)
            built.append(
                _build_section(
                    PerturbationConfig, pert, f"scenarios[{i}].perturbations[{j}]"
                )
            )
        scenarios.append(ScenarioConfig(name=item.get("name", ""), perturbations=tuple(built)))
    return tuple(scenarios)


def config_from_dict(data: Mapping[str, Any]) -> RunConfig:
    """Build and validate a :class:`RunConfig` from a plain mapping."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        if key == "geometry":
            if not isinstance(value, str):
                raise ConfigError("geometry must be a string name")
            kwargs["geometry"] = value
        elif key == "scenarios":
            kwargs["scenarios"] = _build_scenarios(value)
        elif key in _SECTION_TYPES:
            if value is None:
                value = {}
            if not isinstance(value, Mapping):
                raise ConfigError(f"section {key!r} must be a mapping")
            kwargs[key] = _build_section(_SECTION_TYPES[key], value, key)
        else:
            raise ConfigError(f"unknown top-level config key {key!r}")
    return RunConfig(**kwargs).validate()


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a ``config.yaml``-style run configuration."""
    data = yamlish.load_file(path)
    return config_from_dict(data)
