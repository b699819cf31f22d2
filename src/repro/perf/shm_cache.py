"""Single-host shared-memory tier between the in-memory and disk caches.

Pool workers start with a cold in-memory
:class:`~repro.perf.analysis_cache.AnalysisCache`; the disk tier
(:mod:`repro.perf.disk_cache`) spares them the recompute but still costs
a file read plus two ``pickle.loads`` per miss — and without a disk tier
they recompute everything. On one host that is silly: the parent already
holds every warm analysis in memory. This module publishes them into a
read-mostly POSIX shared-memory arena that every worker attaches once:

* **layout** — one segment: a fixed header, a table of fixed 64-byte
  index slots (content digest, blob offset/length, BLAKE2 checksum,
  ready byte), then a bump-allocated blob heap of pickled artifact
  dicts. Digests reuse the disk tier's content key
  (:func:`repro.perf.disk_cache._key_digest`), so the three tiers agree
  on what "the same analysis" means.
* **single writer, lock-free readers** — only the creating process
  (checked by pid) publishes, appending blob-then-slot and bumping the
  entry count last, so a slot is complete before it is visible.
  Republishing a key appends a superseding slot; readers scan newest
  slot wins. Readers verify the blob checksum *before* unpickling, so a
  torn read degrades to a miss, never to corrupt artifacts.
* **per-process memo** — each attached process memoizes deserialized
  artifact dicts by digest+checksum, so the steady-state cost of a warm
  analysis in a worker is one dict hit: no filesystem I/O, no
  deserialization.
* **best-effort everywhere** — a full arena drops the publish, a failed
  attach degrades to "no shm tier", and bug-class exceptions
  (:exc:`MemoryError`) propagate exactly as in the disk tier.

The sweep session (:class:`~repro.sweep.plan.SweepSession`) creates the
arena lazily before its first multiprocess run, publishes the global
cache's warm entries, and ships the segment name to workers through
:class:`~repro.sweep.backends.WorkerContext`; lookups then resolve
memory -> shm -> disk (see :meth:`~repro.perf.analysis_cache.
AnalysisCache.lookup`). Export ``REPRO_ANALYSIS_SHM_CACHE=0`` to disable
the tier; ``REPRO_ANALYSIS_SHM_CACHE_BYTES`` resizes the blob heap.

Like the disk tier, blobs are Python pickles — the segment is created
mode-0600 by the owning user and named unguessably, but the usual
pickle-trust caveat applies.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import pickle
import struct
import threading
from multiprocessing import shared_memory

from repro.perf.analysis_cache import AnalysisKey
from repro.perf.disk_cache import _key_digest

#: Bump when the header/slot/blob layout changes; a version mismatch on
#: attach reads as "no shm tier".
FORMAT_VERSION = 1

#: Environment variable disabling the tier ("0"/"off"/"no"/"false").
ENV_VAR = "REPRO_ANALYSIS_SHM_CACHE"

#: Environment variable resizing the blob heap, in bytes.
HEAP_BYTES_ENV_VAR = "REPRO_ANALYSIS_SHM_CACHE_BYTES"

DEFAULT_MAX_ENTRIES = 1024
DEFAULT_HEAP_BYTES = 16 * 1024 * 1024

_MAGIC = b"REPROSHM"
# magic, version, max_entries, entry_count, heap_used, heap_size.
_HEADER = struct.Struct("<8sIQQQQ")
_HEADER_SIZE = 64  # padded for alignment headroom
_COUNT_OFF = 20
_HEAP_USED_OFF = 28
# digest, heap offset, blob length, blob checksum, ready byte.
_SLOT = struct.Struct("<16sQQ16sB")
_SLOT_SIZE = 64

#: What ``pickle.loads`` raises on truncated/foreign/stale bytes — the
#: disk tier's load-narrowing classes, minus filesystem-only ones.
_LOAD_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    ValueError,
    AttributeError,
    ImportError,
    IndexError,
)

#: What ``pickle.dumps`` raises on unpicklable artifact content — the
#: disk tier's store-narrowing classes. ``MemoryError`` propagates.
_STORE_ERRORS = (
    pickle.PicklingError,
    TypeError,
    AttributeError,
    ValueError,
    RecursionError,
)


def _blob_checksum(blob: bytes) -> bytes:
    return hashlib.blake2b(blob, digest_size=16).digest()


class ShmAnalysisCache:
    """One shared-memory segment of published analysis artifacts.

    Construct through :meth:`create` (the owning parent) or
    :meth:`attach` (a worker); the segment name travels between them via
    :class:`~repro.sweep.backends.WorkerContext.shm_cache`.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        max_entries: int,
        heap_size: int,
        owner_pid: int | None,
    ) -> None:
        self._shm = shm
        self.max_entries = max_entries
        self.heap_size = heap_size
        self._owner_pid = owner_pid
        self._slots_off = _HEADER_SIZE
        self._heap_off = _HEADER_SIZE + max_entries * _SLOT_SIZE
        # Single-writer discipline within the owning process too.
        self._write_lock = threading.Lock()
        #: Owner-side digest -> checksum of the latest published slot,
        #: so re-publishing unchanged artifacts is a no-op instead of a
        #: duplicate slot.
        self._published: dict[bytes, bytes] = {}
        #: Reader-side incremental index: digest -> (offset, length,
        #: checksum) of the newest ready slot scanned so far.
        self._index: dict[bytes, tuple[int, int, bytes]] = {}
        self._scanned = 0
        #: Reader-side memo: digest -> (checksum, deserialized dict).
        self._memo: dict[bytes, tuple[bytes, dict]] = {}
        self.hits = 0
        self.memo_hits = 0  # subset of hits served without unpickling
        self.misses = 0
        self.rejected = 0  # checksum failures / torn slots (subset of misses)
        self.load_errors = 0  # unpicklable blobs (subset of misses)
        self.publishes = 0
        self.store_errors = 0  # unpicklable artifacts (owner side)
        self.full_drops = 0  # publishes dropped by a full table/heap

    @property
    def name(self) -> str:
        return self._shm.name

    @classmethod
    def create(
        cls,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        heap_bytes: int = DEFAULT_HEAP_BYTES,
    ) -> "ShmAnalysisCache":
        """Allocate a fresh arena owned (and later unlinked) by this pid."""
        if max_entries < 1 or heap_bytes < 1:
            raise ValueError("shm cache needs at least one slot and one byte")
        size = _HEADER_SIZE + max_entries * _SLOT_SIZE + heap_bytes
        shm = shared_memory.SharedMemory(create=True, size=size)
        _HEADER.pack_into(
            shm.buf, 0, _MAGIC, FORMAT_VERSION, max_entries, 0, 0, heap_bytes
        )
        return cls(shm, max_entries, heap_bytes, os.getpid())

    @classmethod
    def attach(cls, name: str) -> "ShmAnalysisCache":
        """Attach read-only to an existing arena by segment name.

        Raises on a missing segment or an unrecognized header; callers
        that want best-effort semantics go through
        :func:`attach_shm_cache` instead.
        """
        shm = shared_memory.SharedMemory(name=name)
        try:
            magic, version, max_entries, _count, _used, heap_size = (
                _HEADER.unpack_from(shm.buf, 0)
            )
            if magic != _MAGIC or version != FORMAT_VERSION:
                raise ValueError(
                    f"shm cache segment {name!r} has an unrecognized header"
                )
            expected = _HEADER_SIZE + max_entries * _SLOT_SIZE + heap_size
            if shm.size < expected:
                raise ValueError(
                    f"shm cache segment {name!r} is truncated "
                    f"({shm.size} < {expected} bytes)"
                )
        except Exception:
            shm.close()
            raise
        return cls(shm, max_entries, heap_size, None)

    # -- owner side -------------------------------------------------------

    def publish(self, key: AnalysisKey, artifacts: dict) -> bool:
        """Append ``artifacts`` under ``key``; False when not published.

        Only the creating process publishes (a forked worker inheriting
        this handle is refused by pid, keeping the single-writer
        invariant without any cross-process locking). Unpicklable
        artifacts and a full table/heap degrade to "not in the shm
        tier", never to an error; re-publishing byte-identical artifacts
        is a cheap no-op.
        """
        if self._owner_pid != os.getpid():
            return False
        try:
            blob = pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL)
        except _STORE_ERRORS:
            self.store_errors += 1
            return False
        digest = bytes.fromhex(_key_digest(key))
        checksum = _blob_checksum(blob)
        with self._write_lock:
            if self._published.get(digest) == checksum:
                return True
            buf = self._shm.buf
            count = struct.unpack_from("<Q", buf, _COUNT_OFF)[0]
            heap_used = struct.unpack_from("<Q", buf, _HEAP_USED_OFF)[0]
            if count >= self.max_entries or (
                heap_used + len(blob) > self.heap_size
            ):
                self.full_drops += 1
                return False
            start = self._heap_off + heap_used
            buf[start : start + len(blob)] = blob
            _SLOT.pack_into(
                buf,
                self._slots_off + count * _SLOT_SIZE,
                digest,
                heap_used,
                len(blob),
                checksum,
                1,
            )
            struct.pack_into("<Q", buf, _HEAP_USED_OFF, heap_used + len(blob))
            # Visibility barrier: readers gate on the entry count, so
            # the slot and blob are complete before this bump lands.
            struct.pack_into("<Q", buf, _COUNT_OFF, count + 1)
            self._published[digest] = checksum
            self.publishes += 1
        return True

    # -- reader side ------------------------------------------------------

    def _refresh_index(self) -> None:
        """Fold newly published slots into the per-process index.

        Each slot is decoded once per process; later slots overwrite
        earlier ones for the same digest (newest wins).
        """
        buf = self._shm.buf
        count = struct.unpack_from("<Q", buf, _COUNT_OFF)[0]
        count = min(count, self.max_entries)
        while self._scanned < count:
            digest, offset, length, checksum, ready = _SLOT.unpack_from(
                buf, self._slots_off + self._scanned * _SLOT_SIZE
            )
            if ready and offset + length <= self.heap_size:
                self._index[digest] = (offset, length, checksum)
            self._scanned += 1

    def load(self, key: AnalysisKey) -> dict | None:
        """The published artifact dict for ``key``, or ``None``.

        Checksum-verified before unpickling; repeated loads of the same
        published blob are served from the per-process memo with zero
        deserialization.
        """
        digest = bytes.fromhex(_key_digest(key))
        self._refresh_index()
        entry = self._index.get(digest)
        if entry is None:
            self.misses += 1
            return None
        offset, length, checksum = entry
        memo = self._memo.get(digest)
        if memo is not None and memo[0] == checksum:
            self.hits += 1
            self.memo_hits += 1
            return memo[1]
        buf = self._shm.buf
        start = self._heap_off + offset
        blob = bytes(buf[start : start + length])
        if _blob_checksum(blob) != checksum:
            # A torn read (the owner died mid-publish): a miss, never
            # corrupt artifacts.
            self.rejected += 1
            self.misses += 1
            return None
        try:
            artifacts = pickle.loads(blob)
        except _LOAD_ERRORS:
            self.load_errors += 1
            self.misses += 1
            return None
        if not isinstance(artifacts, dict):
            self.misses += 1
            return None
        self._memo[digest] = (checksum, artifacts)
        self.hits += 1
        return artifacts

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Detach this process's mapping (the segment itself survives).

        Resource-tracker discipline: attachments only ever ``close()``;
        the owning parent alone ``unlink()``s.
        """
        self._shm.close()

    def unlink(self) -> None:
        """Destroy the segment. Owner only; refusal is silent."""
        if self._owner_pid == os.getpid():
            self._shm.unlink()

    def stats(self) -> dict[str, int]:
        """Observability counters of this process's view of the arena."""
        buf = self._shm.buf
        return {
            "entries": struct.unpack_from("<Q", buf, _COUNT_OFF)[0],
            "heap_used": struct.unpack_from("<Q", buf, _HEAP_USED_OFF)[0],
            "hits": self.hits,
            "memo_hits": self.memo_hits,
            "misses": self.misses,
            "rejected": self.rejected,
            "load_errors": self.load_errors,
            "publishes": self.publishes,
            "store_errors": self.store_errors,
            "full_drops": self.full_drops,
        }


# -- process-wide state ----------------------------------------------------

_lock = threading.Lock()
_owner: ShmAnalysisCache | None = None
_attached: ShmAnalysisCache | None = None
_atexit_registered = False


def _env_disabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in (
        "0",
        "off",
        "no",
        "false",
    )


def _env_heap_bytes() -> int:
    raw = os.environ.get(HEAP_BYTES_ENV_VAR, "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_HEAP_BYTES
    return value if value > 0 else DEFAULT_HEAP_BYTES


def _cleanup_owner() -> None:  # pragma: no cover - interpreter teardown
    global _owner
    with _lock:
        cache, _owner = _owner, None
        if cache is not None and cache._owner_pid == os.getpid():
            try:
                cache.close()
                cache.unlink()
            except OSError:
                pass


def ensure_shm_cache() -> str | None:
    """Create (once per process) the owned arena; its name, or ``None``.

    ``None`` means "no shm tier": disabled by :data:`ENV_VAR`, or the
    host cannot allocate shared memory — callers degrade silently. A
    forked child that starts its own sweep gets its own arena rather
    than writing into its parent's.
    """
    global _owner, _atexit_registered
    with _lock:
        if _env_disabled():
            return None
        if _owner is not None and _owner._owner_pid == os.getpid():
            return _owner.name
        try:
            cache = ShmAnalysisCache.create(heap_bytes=_env_heap_bytes())
        except (OSError, ValueError):
            return None
        _owner = cache
        if not _atexit_registered:
            _atexit_registered = True
            atexit.register(_cleanup_owner)
        return cache.name


def attach_shm_cache(name: str) -> ShmAnalysisCache | None:
    """Attach this process to the arena named ``name``, best-effort.

    Idempotent per name; a forked worker that inherited the owner's
    handle reuses it (the pid guard already makes it read-only there).
    Any attach failure — the parent exited and unlinked, a torn or
    foreign header — returns ``None`` and the process simply runs
    without the tier.
    """
    global _attached
    with _lock:
        if _owner is not None and _owner.name == name:
            return _owner
        if _attached is not None and _attached.name == name:
            return _attached
        if _attached is not None:
            try:
                _attached.close()
            except OSError:  # pragma: no cover - already-closed edge
                pass
            _attached = None
        try:
            _attached = ShmAnalysisCache.attach(name)
        except (OSError, ValueError):
            return None
        return _attached


def active_shm_cache() -> ShmAnalysisCache | None:
    """The arena this process should read from, or ``None``."""
    with _lock:
        if _attached is not None:
            return _attached
        return _owner


def reset_shm_cache_state() -> None:
    """Tear down this process's arena handles (for tests and benches)."""
    global _owner, _attached
    with _lock:
        if _attached is not None:
            try:
                _attached.close()
            except OSError:  # pragma: no cover - already-closed edge
                pass
            _attached = None
        if _owner is not None:
            if _owner._owner_pid == os.getpid():
                try:
                    _owner.close()
                    _owner.unlink()
                except OSError:  # pragma: no cover - already-gone edge
                    pass
            _owner = None


def shm_cache_stats() -> dict[str, int] | None:
    """Counters of the active arena, or ``None`` without one."""
    cache = active_shm_cache()
    return None if cache is None else cache.stats()
