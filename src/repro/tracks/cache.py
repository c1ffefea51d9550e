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
re-written), never an error.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from pathlib import Path

from repro.constants import LOCK_STALE_SECONDS
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


_LOCK_POLL_SECONDS = 0.02


def _holder_alive(lock: Path) -> bool:
    """False only if ``lock`` names a process that no longer exists; a lock
    still being written (or already released) is judged by its age."""
    from repro.runtime.cpus import alive  # the one module that asks after pids

    try:
        return alive(int(lock.read_text()))
    except (OSError, ValueError):
        return True


class TrackingCache:
    """Content-addressed store of tracking archives.

    ``load(trackgen)`` restores a hit into a non-generated generator and
    returns whether it hit; ``store(trackgen)`` persists a generated one.

    Stores are safe under concurrent writers, in three layers: entries are
    content-addressed, so a key that already exists is simply skipped
    (first wins — any two writers of one key hold identical products); a
    per-key lockfile (``O_CREAT|O_EXCL``, holding the writer's process ID;
    broken at once when that process no longer exists, else when older
    than ``lock_timeout``) serialises the writers that do race, so
    the archive is built once, not N times; and the archive is written to
    a temp file then atomically renamed, so even lockless writers — e.g.
    after a lock timeout — can only replace a complete entry with an
    identical one, never expose a partial archive.

    ``lock_timeout`` is both the stale-break threshold (a competing lock
    older than this is broken) and the default wait budget of
    :meth:`store` — one window, because breaking a peer's lock before
    giving up on our own would be incoherent. A lock older than the
    window is assumed to belong to a crashed process; one naming a process
    that no longer exists is known to, so a killed writer stalls nobody
    (a live writer's lock broken by mistake — a process ID from another
    PID namespace — costs one duplicate write). Writing an archive
    takes well under a second, but long-lived server processes may hold
    entries open far longer — set ``tracking.cache_lock_timeout``.
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        lock_timeout: float = LOCK_STALE_SECONDS,
    ) -> None:
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        self.lock_timeout = float(lock_timeout)
        if self.lock_timeout <= 0.0:
            raise ValueError(f"lock_timeout must be positive (got {self.lock_timeout})")
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

    def _acquire_lock(self, path: Path, timeout: float) -> Path | None:
        """Best-effort per-key writer lock; ``None`` after ``timeout``.

        A ``None`` return is not an error: the caller proceeds locklessly
        and the atomic rename keeps the entry consistent regardless.
        """
        lock = path.with_suffix(".lock")
        deadline = time.monotonic() + timeout
        while True:
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    # Wall clock is required here: lock staleness compares
                    # against the filesystem's st_mtime, which perf_counter
                    # cannot be compared with. Never feeds solver numerics.
                    age = time.time() - lock.stat().st_mtime  # repro: ignore[wall-clock]
                except OSError:
                    continue  # holder released between open and stat
                if age > self.lock_timeout or not _holder_alive(lock):
                    self._logger.warning("breaking stale cache lock %s", lock)
                    try:
                        os.unlink(lock)
                    except OSError:
                        pass
                    continue
                if time.monotonic() >= deadline:
                    return None
                time.sleep(_LOCK_POLL_SECONDS)
            else:
                os.write(fd, f"{os.getpid()}\n".encode())
                os.close(fd)
                return lock

    def store(self, trackgen, lock_timeout: float | None = None) -> Path:
        """Persist ``trackgen``'s products; returns the entry path."""
        if lock_timeout is None:
            lock_timeout = self.lock_timeout
        path = self.path_for(trackgen)
        if path.exists():
            # Content-addressed: whoever got here first wrote these exact
            # products already.
            return path
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        lock = self._acquire_lock(path, lock_timeout)
        try:
            if path.exists():  # a racing writer finished while we waited
                return path
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
        finally:
            if lock is not None:
                try:
                    os.unlink(lock)
                except OSError:
                    pass
        self._logger.info("tracking cache store: %s", path)
        return path


def resolve_cache(
    enabled: bool,
    cache_dir: str | Path | None = None,
    lock_timeout: float = LOCK_STALE_SECONDS,
) -> TrackingCache | None:
    """Config/CLI helper: a :class:`TrackingCache` or ``None`` if disabled."""
    return TrackingCache(cache_dir, lock_timeout=lock_timeout) if enabled else None
