"""Persistent cross-process tier under the in-memory analysis cache.

Worker processes and restarted sweep sessions each start with a cold
in-memory :class:`~repro.perf.analysis_cache.AnalysisCache`, so every one
of them used to re-pay routing, competing-message sets, lookahead
capacities and the constraint labeling for programs another process had
already analysed. This module adds a disk tier keyed by the same content
fingerprints (program x topology x router x queue-provisioning bits):

* **atomic writes** — entries are serialized to a temporary file in the
  cache directory and published with :func:`os.replace`, so concurrent
  writers (sweep workers racing on the same program) and crashed
  processes can never leave a half-written entry visible;
* **format versioning** — every entry embeds :data:`FORMAT_VERSION` and
  its own :class:`~repro.perf.analysis_cache.AnalysisKey`; a version or
  key mismatch reads as a miss, so upgrading the serialization never
  poisons old caches;
* **corruption tolerance** — the I/O and deserialization failure
  classes a cache legitimately encounters (truncated file, foreign
  bytes, stale class references, permission walls) are treated as
  misses and counted in ``stats()["load_errors"]``; genuine bug-class
  exceptions (:exc:`MemoryError`, a programming error in an artifact's
  ``__setstate__``) propagate instead of hiding behind a silent miss;
* **integrity digest** — the artifact payload is pickled separately and
  stored alongside a BLAKE2 checksum of those exact bytes; a load
  verifies the checksum *before* deserializing the artifacts, so a
  truncated or bit-flipped entry is rejected (and recomputed) without
  ever unpickling corrupt bytes. Writing checksums can be disabled per
  cache instance (``DiskAnalysisCache(dir, checksum=False)``); entries
  written without one are still readable.
* **size-bounded LRU eviction** — with a byte budget
  (``DiskAnalysisCache(dir, max_bytes=N)`` or
  ``REPRO_ANALYSIS_DISK_CACHE_MAX_BYTES``), every store that pushes the
  directory past the budget evicts least-recently-used entries (by
  mtime; loads touch the file, so a hot entry's recency is its last
  *use*, not its write) until the directory fits again. The entry just
  stored is never evicted — spared by identity, immune to coarse
  filesystem timestamps — so one oversized artifact degrades to a
  single-entry cache instead of thrashing. Unbounded by default.

Enable it by exporting ``REPRO_ANALYSIS_DISK_CACHE=/path/to/dir`` (the
directory is created on demand) or programmatically via
:func:`configure_disk_cache`. :class:`~repro.sim.runtime.Simulator`
persists entries after static analysis completes, and the sweep
executor (:mod:`repro.sweep.backends`) replays the active
configuration inside every worker process through its
``WorkerContext`` hook (see :func:`active_disk_cache_config`), so
``simulate_many`` / ``simulate_stream`` share the tier across all
workers whether it was configured by env var, by argument or by API
call.

Entries are Python pickles: only point the cache at directories you
trust, exactly as with any pickle-based artifact store.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from pathlib import Path

from repro.perf.analysis_cache import AnalysisKey

#: Bump when the serialized artifact layout changes; old entries then
#: read as misses instead of deserializing into garbage. Version 2: the
#: crossing engine's dense-int interning landed (artifacts themselves are
#: still name-keyed, but the layout guarantee is re-stated from scratch)
#: and artifacts moved to a separately pickled, checksummed byte payload.
FORMAT_VERSION = 2

#: Environment variable naming the cache directory ("" = disabled).
ENV_VAR = "REPRO_ANALYSIS_DISK_CACHE"

#: Environment variable bounding the cache directory size in bytes
#: (unset, empty or unparsable = unbounded).
MAX_BYTES_ENV_VAR = "REPRO_ANALYSIS_DISK_CACHE_MAX_BYTES"

_SUFFIX = ".analysis.pkl"


def _env_max_bytes() -> int | None:
    raw = os.environ.get(MAX_BYTES_ENV_VAR, "")
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _key_digest(key: AnalysisKey) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(
        f"{key.program}|{key.topology}|{key.router}|"
        f"{key.queue_capacity}|{key.allow_extension}".encode()
    )
    return h.hexdigest()


def _artifact_checksum(blob: bytes) -> str:
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


class DiskAnalysisCache:
    """One directory of pickled analysis artifacts, one file per key.

    Args:
        directory: where entry files live (created on demand).
        checksum: write a BLAKE2 integrity digest with every entry
            (verified on load before the artifacts are deserialized).
            Loading always verifies a digest when one is present,
            regardless of this flag.
        max_bytes: byte budget for the whole directory; every store
            that exceeds it evicts least-recently-used entries (by
            mtime — loads refresh it) until the directory fits. ``None``
            (the default) disables eviction.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        checksum: bool = True,
        max_bytes: int | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checksum = checksum
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.rejected = 0  # checksum mismatches (a subset of misses)
        self.evictions = 0  # entries removed by the size bound
        self.load_errors = 0  # unreadable/corrupt entries (subset of misses)
        self.store_errors = 0  # failed publishes (store returned False)
        # Running directory-size estimate (this process's view): stores
        # add their payload size, the full scan inside _evict_to_budget
        # resyncs it. Only when the estimate crosses the budget does a
        # store pay the O(entries) directory walk — concurrent writers
        # drift it low, which merely defers their bytes to the next
        # resync (eviction is best-effort hygiene either way).
        self._approx_bytes: int | None = None

    def _path(self, key: AnalysisKey) -> Path:
        return self.directory / f"{_key_digest(key)}{_SUFFIX}"

    def load(self, key: AnalysisKey) -> dict | None:
        """The stored artifact dict for ``key``, or ``None``.

        Version-stamped, key-checked and (when a digest is present)
        checksum-verified *before* the artifact bytes are unpickled. A
        read, verification or deserialization failure of the expected
        I/O/corruption classes is a miss (counted in ``load_errors``);
        anything else — :exc:`MemoryError`, a programming error in an
        artifact's ``__setstate__`` — propagates, because swallowing it
        hides a real bug behind a silent cache miss.
        """
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            # The ordinary cold miss: nothing was ever stored here.
            self.misses += 1
            return None
        except OSError:
            self.load_errors += 1
            self.misses += 1
            return None
        try:
            payload = pickle.loads(raw)
            if (
                isinstance(payload, dict)
                and payload.get("version") == FORMAT_VERSION
                and payload.get("key") == key
                and isinstance(payload.get("artifacts"), bytes)
            ):
                blob = payload["artifacts"]
                digest = payload.get("checksum")
                if digest is not None and digest != _artifact_checksum(blob):
                    self.rejected += 1
                    self.misses += 1
                    return None
                artifacts = pickle.loads(blob)
                if isinstance(artifacts, dict):
                    self.hits += 1
                    try:
                        # Refresh recency: eviction is LRU by mtime, and
                        # a hit counts as a use.
                        os.utime(path)
                    except OSError:
                        pass
                    return artifacts
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError, IndexError):
            # The classes pickle.loads raises on truncated/foreign/
            # stale bytes (plus OSError from utime-less filesystems).
            self.load_errors += 1
        self.misses += 1
        return None

    def store(self, key: AnalysisKey, artifacts: dict) -> bool:
        """Atomically publish ``artifacts`` under ``key``.

        Returns False (without raising) when the entry cannot be
        serialized or written — unpicklable custom artifacts and full
        disks degrade to "no disk tier", never to a failed simulation.
        """
        try:
            blob = pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError, ValueError,
                RecursionError):
            # The classes pickle.dumps raises on unpicklable content
            # (custom artifacts with closures, cyclic monsters).
            self.store_errors += 1
            return False
        payload = {
            "version": FORMAT_VERSION,
            "key": key,
            "checksum": _artifact_checksum(blob) if self.checksum else None,
            "artifacts": blob,
        }
        path = self._path(key)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            raw = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.write_bytes(raw)
            if self.max_bytes is not None:
                # Overwrites replace these bytes; keep the estimate flat.
                try:
                    replaced = path.stat().st_size
                except OSError:
                    replaced = 0
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError):
            # Full disks, permission walls, vanished directories: degrade
            # to "no disk tier", never to a failed simulation.
            self.store_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self.stores += 1
        if self.max_bytes is not None:
            approx = self._approx_bytes
            if approx is not None:
                approx += len(raw) - replaced
                self._approx_bytes = approx
            if approx is None or approx > self.max_bytes:
                self._evict_to_budget(keep=path)
        return True

    def _evict_to_budget(self, keep: Path | None = None) -> int:
        """Drop least-recently-used entries until the directory fits.

        Returns the number of entries removed. ``keep`` (the entry the
        caller just published) is never a candidate — sparing it by
        identity rather than by mtime position, because coarse
        filesystem timestamps or a concurrent writer can make the
        just-written file sort below an older one. Every stat/unlink
        race (a concurrent writer or evictor) is tolerated — eviction
        is best-effort hygiene, never an error.
        """
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for path in self.directory.glob(f"*{_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            total += stat.st_size
            if path != keep:
                entries.append((stat.st_mtime, stat.st_size, path))
        if total <= self.max_bytes or not entries:
            self._approx_bytes = total
            return 0
        entries.sort()  # oldest mtime first
        if keep is None:
            entries.pop()  # no published entry to spare: keep the newest
        removed = 0
        for _mtime, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        self.evictions += removed
        self._approx_bytes = total
        return removed

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        for entry in self.directory.glob(f"*{_SUFFIX}"):
            try:
                entry.unlink()
                removed += 1
            except OSError:
                pass
        self._approx_bytes = None  # resync on the next bounded store
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"*{_SUFFIX}"))

    def stats(self) -> dict[str, int]:
        """Entry count plus hit/miss/store counters of this process."""
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "load_errors": self.load_errors,
            "store_errors": self.store_errors,
        }


_lock = threading.Lock()
_configured = False  # has configure_disk_cache overridden the env var?
_active: DiskAnalysisCache | None = None


def configure_disk_cache(
    directory: str | os.PathLike | None,
    max_bytes: int | None = None,
) -> DiskAnalysisCache | None:
    """Set (or, with ``None``, disable) the process-wide disk tier.

    Overrides :data:`ENV_VAR`; ``max_bytes`` bounds the directory size
    (``None`` falls back to :data:`MAX_BYTES_ENV_VAR`, unbounded when
    that is unset too). Returns the active cache, if any.
    """
    global _configured, _active
    with _lock:
        _configured = True
        budget = max_bytes if max_bytes is not None else _env_max_bytes()
        if (
            directory
            and _active is not None
            and _active.directory == Path(directory)
            and _active.max_bytes == budget
        ):
            return _active  # same configuration: keep instance + counters
        _active = (
            DiskAnalysisCache(directory, max_bytes=budget)
            if directory
            else None
        )
        return _active


def active_disk_cache() -> DiskAnalysisCache | None:
    """The process-wide disk tier, resolving :data:`ENV_VAR` lazily."""
    global _configured, _active
    with _lock:
        if not _configured:
            _configured = True
            directory = os.environ.get(ENV_VAR, "")
            if directory:
                try:
                    _active = DiskAnalysisCache(
                        directory, max_bytes=_env_max_bytes()
                    )
                except OSError:
                    _active = None
        return _active


def active_disk_cache_config() -> tuple[str, int | None] | None:
    """The active tier's ``(directory, max_bytes)``, or ``None``.

    The worker-configuration hook of the sweep executor
    (:class:`repro.sweep.backends.WorkerContext`) captures this in the
    parent and replays it inside every sweep worker, so a disk tier set
    up programmatically via :func:`configure_disk_cache` — invisible to
    child processes, unlike :data:`ENV_VAR` — is still shared by every
    worker.
    """
    cache = active_disk_cache()
    if cache is None:
        return None
    return (str(cache.directory), cache.max_bytes)


def reset_disk_cache_state() -> None:
    """Forget the configured/env-resolved state (for tests)."""
    global _configured, _active
    with _lock:
        _configured = False
        _active = None
