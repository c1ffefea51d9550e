"""Run manifests: the provenance block attached to every solve.

The paper's tables only mean something next to the configuration that
produced them; a :class:`RunManifest` pins exactly that — a content hash
of the validated configuration, the git revision of the tree, the
engine/backend selections and enough host information to interpret
timings. Manifests are deliberately timestamp-free: two runs of the same
configuration on the same tree produce identical manifests, so a report
diff only surfaces *meaningful* provenance drift.
"""

from __future__ import annotations

import hashlib
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ObservabilityError

#: Environment override for the recorded git revision (useful when running
#: from an exported tree without ``.git``).
GIT_REV_ENV_VAR = "REPRO_GIT_REV"


def _canonical(value: Any) -> Any:
    """Deterministic, hashable spelling of a config value tree."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return repr(value)


def config_hash(config_dict: Mapping[str, Any]) -> str:
    """SHA-256 over the canonicalised configuration dict."""
    import json

    blob = json.dumps(  # repro: ignore[raw-metrics-dump] — hashing input, not a metrics sink
        _canonical(config_dict), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def detect_git_rev(start: str | Path | None = None) -> str:
    """Best-effort git revision without spawning a subprocess.

    Walks up from ``start`` (default: this package) to a ``.git``
    directory, then follows ``HEAD`` one level of indirection. Returns
    ``"unknown"`` when the tree is not a checkout; the
    :data:`GIT_REV_ENV_VAR` override wins over detection.
    """
    override = os.environ.get(GIT_REV_ENV_VAR)
    if override:
        return override
    here = Path(start) if start is not None else Path(__file__).resolve()
    for parent in [here, *here.parents]:
        git_dir = parent / ".git"
        if not git_dir.is_dir():
            continue
        try:
            head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
            if head.startswith("ref:"):
                ref = head.split(None, 1)[1]
                ref_file = git_dir / ref
                if ref_file.is_file():
                    return ref_file.read_text(encoding="utf-8").strip()
                packed = git_dir / "packed-refs"
                if packed.is_file():
                    for line in packed.read_text(encoding="utf-8").splitlines():
                        if line.endswith(ref) and not line.startswith("#"):
                            return line.split()[0]
                return "unknown"
            return head
        except OSError:
            return "unknown"
    return "unknown"


def host_info() -> dict[str, Any]:
    """Interpretation context for timings (never affects numerics)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
    }


@dataclass(frozen=True)
class RunManifest:
    """Provenance of one solve: what ran, from which tree, on what."""

    config_hash: str
    git_rev: str
    geometry: str
    engine: str
    backend: str
    storage_method: str
    seed: int | None = None
    host: dict[str, Any] = field(default_factory=host_info)

    @classmethod
    def collect(cls, config: Any, seed: int | None = None) -> "RunManifest":
        """Build a manifest from a validated ``RunConfig``."""
        config_dict = config.to_dict()
        return cls(
            config_hash=config_hash(config_dict),
            git_rev=detect_git_rev(),
            geometry=str(config.geometry),
            engine=str(config.decomposition.engine),
            backend=str(config.solver.sweep_backend),
            storage_method=str(config.solver.storage_method),
            seed=seed,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "config_hash": self.config_hash,
            "git_rev": self.git_rev,
            "geometry": self.geometry,
            "engine": self.engine,
            "backend": self.backend,
            "storage_method": self.storage_method,
            "seed": self.seed,
            "host": dict(self.host),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunManifest":
        """The manifest of a saved report. Keys it does not name are
        ignored, so a report that still records the ``tracer`` of an older
        tree loads."""
        try:
            return cls(
                config_hash=str(payload["config_hash"]),
                git_rev=str(payload["git_rev"]),
                geometry=str(payload["geometry"]),
                engine=str(payload["engine"]),
                backend=str(payload["backend"]),
                storage_method=str(payload["storage_method"]),
                seed=payload.get("seed"),
                host=dict(payload.get("host", {})),
            )
        except KeyError as exc:
            raise ObservabilityError(f"manifest missing field {exc}") from None
