"""Content-addressed cache of tracking products.

Tracking setup (laydown, linking, chains, 2D segmentation) is
deterministic in the geometry and the tracking parameters, and the paper
notes the products "could be restored during transport solving" (Sec. 2.1)
— so repeated solves and benchmark reruns over the same problem can skip
the radial pipeline. This module keys the archives written by
:mod:`repro.tracks.io` — the radial laydown, nothing else — by a SHA-256
fingerprint of everything that laydown depends on:

* the geometry as the tracer reads it — the digest of its compiled flat
  view (:attr:`~repro.geometry.flat.FlatGeometry.digest`: surface
  coefficients, cell sign matrices, lattice tables), its bounds, boundary
  conditions and FSR count. Object ids and names are not in the flat
  arrays (they are process-global counters), and neither are materials:
  tracking never looks at a material, so geometries differing only in
  composition share cache entries;
* the azimuthal parameters — count and requested spacing. The polar
  quadrature and a 3D generator's polar spacing, axial mesh and axial
  boundary conditions are not in the key: the radial laydown never reads
  them, so a 2D run, a 3D run and a z-decomposed run over one radial
  geometry share one entry, and each 3D generator builds its own 3D
  laydown over it;
* the archive :data:`~repro.tracks.io.FORMAT_VERSION`, so entries
  invalidate themselves when the serialisation changes.

Anything that changes any of these inputs changes the key — cache
invalidation is automatic and stale entries are simply never addressed
again. Entries live under ``~/.cache/repro`` by default, overridable via
the ``cache_dir`` config field or the ``REPRO_CACHE_DIR`` environment
variable. A corrupt or unreadable entry is treated as a miss (and
re-written), never an error. Concurrent writers of one key need no
coordination: :class:`TrackingCache` says why, and no other module
handles them.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from repro.io.logging_utils import get_logger
from repro.tracks.io import FORMAT_VERSION, load_tracking, save_tracking

#: Environment override for the cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

_DEFAULT_CACHE_DIR = "~/.cache/repro"


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    return Path(os.environ.get(CACHE_DIR_ENV_VAR) or _DEFAULT_CACHE_DIR).expanduser()


def _f(value: float) -> str:
    """Exact (round-trippable) float spelling for fingerprints."""
    return float(value).hex()


def tracking_fingerprint(trackgen) -> str:
    """Full cache-key text for a track generator's radial laydown (2D or
    3D generator alike)."""
    geometry = trackgen.geometry
    azim = trackgen.azimuthal
    bcs = ",".join(f"{side}={geometry.boundary[side].value}" for side in sorted(geometry.boundary))
    bounds = ",".join(_f(v) for v in geometry.bounds)
    return (
        f"format={FORMAT_VERSION}|geometry(bounds=[{bounds}],bc=[{bcs}],"
        f"fsrs={geometry.num_fsrs},flat={geometry.flat.digest})"
        f"|azim({azim.num_azim},{_f(azim.requested_spacing)})"
    )


class TrackingCache:
    """Content-addressed store of tracking archives.

    ``load(trackgen)`` restores a hit into a non-generated generator and
    returns whether it hit; ``store(trackgen)`` persists a generated one.

    Stores are safe under concurrent writers, in two layers: entries are
    content-addressed, so a key that already exists is simply skipped
    (first wins — any two writers of one key hold identical products);
    and the archive is written to a temp file then atomically renamed, so
    writers that do race can only replace a complete entry with an
    identical one, never expose a partial archive. Nothing waits on a
    peer: racing writers have each traced already, so the cost of a race
    is one duplicate archive write, and a writer killed mid-store leaves
    at most its own ``tmp*.tmp.npz``.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        self._logger = get_logger("repro.tracks.cache")

    def key_for(self, trackgen) -> str:
        digest = hashlib.sha256(tracking_fingerprint(trackgen).encode()).hexdigest()
        return digest

    def path_for(self, trackgen) -> Path:
        return self.cache_dir / f"tracking-{self.key_for(trackgen)}.npz"

    def load(self, trackgen) -> bool:
        """Restore a cached archive into ``trackgen``; False on miss."""
        path = self.path_for(trackgen)
        try:
            load_tracking(path, trackgen)
        except FileNotFoundError:  # absent, or removed since it was addressed
            return False
        except Exception as exc:  # corrupt/stale entry: miss, not error
            self._logger.warning("evicting unreadable cache entry %s: %s", path, exc)
            # Writers only ever rename complete archives into place, so an
            # unreadable entry is external damage; evict it or the
            # first-wins store() would preserve it forever.
            try:
                os.unlink(path)
            except OSError:
                pass
            return False
        self._logger.info("tracking cache hit: %s", path)
        return True

    def store(self, trackgen) -> Path:
        """Persist ``trackgen``'s products; returns the entry path."""
        path = self.path_for(trackgen)
        if path.exists():
            # Content-addressed: whoever got here first wrote these exact
            # products already.
            return path
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # The suffix must stay ".npz" or np.savez would append one and
        # the rename below would promote an empty file.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp.npz")
        os.close(fd)
        try:
            save_tracking(tmp, trackgen)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._logger.info("tracking cache store: %s", path)
        return path


def resolve_cache(enabled: bool, cache_dir: str | Path | None = None) -> TrackingCache | None:
    """Config/CLI helper: a :class:`TrackingCache` or ``None`` if disabled."""
    return TrackingCache(cache_dir) if enabled else None
