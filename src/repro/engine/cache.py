"""The engine's result store: an in-memory LRU over pluggable backends.

Design (see DESIGN.md, "Batch engine" and section 8):

* **Keys** are canonical-content strings built by the jobs in
  :mod:`repro.engine.jobs` from the hashes of :mod:`repro.engine.canon`
  plus every procedure parameter that can change the answer (budgets,
  step limits).  α-equivalent inputs therefore hit the same row.
* **Values** are pickled library objects (``ContainmentResult``,
  ``RewritingResult``, classification outcomes) — everything the library
  returns is a frozen dataclass over hashable cores, so pickling is safe
  and round-trips exactly.
* **Backends**: :class:`ResultCache` is a front (LRU, pickling, metrics,
  registry hookup) over a :class:`CacheBackend` that moves raw bytes.
  Three ship in the :data:`BACKENDS` registry:

  - ``"sqlite"`` — the WAL-mode sqlite file (single-host, multi-process);
  - ``"sharded"`` — one file per entry under 256 hash-prefix shard
    directories, written atomically via ``os.replace`` — no locks at
    all, so it is safe on NFS and other shared filesystems where sqlite
    locking is unreliable;
  - ``"memory"`` — no disk layer (equivalent to ``cache_dir=None``).

  ``register_backend`` admits external implementations (e.g. a networked
  store) without touching this module.
* **Failure tolerance**: the cache must never take down a query.  Every
  backend/pickle failure degrades to a miss.  The sqlite file follows
  the durable-store contract of :mod:`repro.engine.durable` (WAL, busy
  timeout, version stamps; a damaged or stale file is rebuilt, a lock
  costs one lookup/store and leaves the file alone).  The sharded
  backend bakes both version stamps into its directory name, so a
  version bump simply starts a fresh directory; it is contention-free
  by construction: concurrent writers race on ``os.replace``, and either
  complete entry wins.
* The in-memory LRU fronts the disk store so warm-batch lookups never
  touch the backend; it registers with :mod:`repro.engine.registry` so
  ``repro.clear_caches()`` empties it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from collections import OrderedDict
from pathlib import Path
from threading import RLock
from typing import Any, Callable, Dict, Optional, Tuple

from . import registry
from .canon import CANON_VERSION
from .durable import DurableStore
from .metrics import MetricsRegistry

#: Bump when the on-disk layout changes; old stores are discarded on open.
SCHEMA_VERSION = "1"

_DB_NAME = "repro-cache.sqlite"


class CacheBackend:
    """The byte-moving contract behind :class:`ResultCache`.

    A backend stores opaque payloads under string keys.  Every method is
    *total*: failures degrade to a miss / no-op and are counted on
    ``transient_errors`` (hiccups: locks, I/O) or ``recoveries`` (the
    backend threw away damaged state), never raised.  The front holds its
    own lock around every backend call, so implementations need to be
    safe across *processes*, not across threads of one process.
    """

    #: Registry name; also reported by ``ResultCache.stats()["backend"]``.
    name = "abstract"

    #: Failure counters (instance attributes once a backend counts one).
    recoveries = 0
    transient_errors = 0

    @property
    def persistent(self) -> bool:
        """Whether stores currently reach durable storage."""
        raise NotImplementedError

    def load(self, key: str) -> Optional[bytes]:
        """The payload stored under *key*, or ``None`` (miss/failure)."""
        raise NotImplementedError

    def store(self, key: str, payload: bytes) -> None:
        """Persist *payload* under *key* (best effort)."""
        raise NotImplementedError

    def delete(self, key: str) -> None:
        """Drop *key* if present (used when its payload fails to decode)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every entry."""
        raise NotImplementedError

    def count(self) -> int:
        """Number of stored entries (0 on failure)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; the backend degrades to non-persistent."""


class SqliteBackend(CacheBackend):
    """The WAL-mode sqlite file store (single host, many processes); the
    file follows the :mod:`repro.engine.durable` contract."""

    name = "sqlite"

    def __init__(self, cache_dir: str) -> None:
        self._db = DurableStore(
            str(Path(cache_dir) / _DB_NAME),
            [
                "CREATE TABLE IF NOT EXISTS results "
                "(key TEXT PRIMARY KEY, payload BLOB, created REAL)"
            ],
            SCHEMA_VERSION,
        )

    @property
    def recoveries(self) -> int:  # type: ignore[override]
        return self._db.recoveries

    @property
    def transient_errors(self) -> int:  # type: ignore[override]
        return self._db.transient_errors

    @property
    def persistent(self) -> bool:
        return self._db.persistent

    def load(self, key: str) -> Optional[bytes]:
        rows = self._db.read(
            "SELECT payload FROM results WHERE key = ?", (key,)
        )
        return rows[0][0] if rows else None

    def store(self, key: str, payload: bytes) -> None:
        self._db.write(
            (
                "INSERT OR REPLACE INTO results VALUES (?, ?, ?)",
                [(key, payload, time.time())],
            )
        )

    def delete(self, key: str) -> None:
        self._db.write(("DELETE FROM results WHERE key = ?", [(key,)]))

    def clear(self) -> None:
        self._db.write(("DELETE FROM results", [()]))

    def count(self) -> int:
        rows = self._db.read("SELECT COUNT(*) FROM results")
        return rows[0][0] if rows else 0

    def close(self) -> None:
        self._db.close()


class ShardedDirBackend(CacheBackend):
    """One file per entry under 256 hash-prefix shards — lock-free, NFS-safe.

    Layout: ``<cache_dir>/repro-cache-shards-v<schema>-c<canon>/<hh>/<hash>``
    where ``hh`` is the first byte of the key's sha256 (256-way fan-out
    keeps directory listings short on large catalogs) and ``hash`` the
    full digest.  Writes go to a unique temp file in the shard and land
    via ``os.replace`` — atomic on POSIX, so readers see either nothing
    or a complete payload and concurrent writers simply race to publish
    the same answer.  No byte-range locks are ever taken, which is what
    makes this layout safe on NFS and other shared mounts where sqlite's
    POSIX locking is famously broken.

    Version invalidation is structural: the schema/canon stamps live in
    the root directory's *name*, so a version bump just starts an empty
    directory and the stale one is ignored.
    """

    name = "sharded"

    def __init__(self, cache_dir: str) -> None:
        self.root = (
            Path(cache_dir)
            / f"repro-cache-shards-v{SCHEMA_VERSION}-c{CANON_VERSION}"
        )
        self._available = False
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            self._available = True
        except OSError:
            self.transient_errors += 1

    def _path_for(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return self.root / digest[:2] / digest

    @property
    def persistent(self) -> bool:
        return self._available

    def load(self, key: str) -> Optional[bytes]:
        if not self._available:
            return None
        try:
            return self._path_for(key).read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.transient_errors += 1
            return None

    def store(self, key: str, payload: bytes) -> None:
        if not self._available:
            return
        path = self._path_for(key)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(payload)
            os.replace(tmp, path)
        except OSError:
            self.transient_errors += 1
            try:
                tmp.unlink()
            except OSError:
                pass

    def delete(self, key: str) -> None:
        try:
            self._path_for(key).unlink()
        except FileNotFoundError:
            pass
        except OSError:
            self.transient_errors += 1

    def clear(self) -> None:
        if not self._available:
            return
        try:
            for shard in self.root.iterdir():
                if not shard.is_dir():
                    continue
                for entry in shard.iterdir():
                    try:
                        entry.unlink()
                    except OSError:
                        self.transient_errors += 1
        except OSError:
            self.transient_errors += 1

    def count(self) -> int:
        if not self._available:
            return 0
        total = 0
        try:
            for shard in self.root.iterdir():
                if not shard.is_dir():
                    continue
                total += sum(
                    1
                    for entry in shard.iterdir()
                    if not entry.name.endswith(".tmp")
                )
        except OSError:
            self.transient_errors += 1
        return total

    def close(self) -> None:
        self._available = False


#: name -> factory(cache_dir) for disk-backed stores; ``"memory"`` is
#: handled by the front (no backend object at all).
BACKENDS: Dict[str, Callable[[str], CacheBackend]] = {
    "sqlite": SqliteBackend,
    "sharded": ShardedDirBackend,
}


def register_backend(
    name: str, factory: Callable[[str], CacheBackend]
) -> None:
    """Admit a custom :class:`CacheBackend` under *name* (e.g. a networked
    store); it becomes selectable via ``ResultCache(backend=name)`` and
    the CLI's ``--cache-backend``."""
    BACKENDS[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Every selectable backend name, ``"memory"`` first."""
    return ("memory", *sorted(BACKENDS))


class ResultCache:
    """A two-level (LRU memory, pluggable disk backend) store for results.

    ``cache_dir=None`` (or ``backend="memory"``) gives a memory-only
    cache.  All operations are total: lookups return ``(found, value)``
    and failures of the disk layer only ever cost performance, never
    correctness.

    *backend* selects the disk layer: a registry name from
    :func:`available_backends`, or a ready :class:`CacheBackend` instance
    (in which case *cache_dir* is ignored).
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        memory_size: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
        backend: Any = "sqlite",
    ) -> None:
        self._lock = RLock()
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._memory_size = max(1, memory_size)
        self.metrics = metrics or MetricsRegistry()
        self._backend: Optional[CacheBackend]
        if isinstance(backend, CacheBackend):
            self._backend = backend
        elif backend == "memory" or cache_dir is None:
            self._backend = None
        elif isinstance(backend, str):
            try:
                factory = BACKENDS[backend]
            except KeyError:
                raise ValueError(
                    f"unknown cache backend {backend!r}; "
                    f"choose from {', '.join(available_backends())}"
                ) from None
            self._backend = factory(cache_dir)
        else:
            raise TypeError(
                f"backend must be a name or CacheBackend, got {backend!r}"
            )
        registry.register_instance_cache(
            "engine.result_cache", self, "clear_memory"
        )

    # -- public API ------------------------------------------------------

    @property
    def backend_name(self) -> str:
        return self._backend.name if self._backend is not None else "memory"

    @property
    def persistent(self) -> bool:
        return self._backend is not None and self._backend.persistent

    @property
    def recoveries(self) -> int:
        return self._backend.recoveries if self._backend is not None else 0

    @property
    def transient_errors(self) -> int:
        return (
            self._backend.transient_errors
            if self._backend is not None
            else 0
        )

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look *key* up; returns ``(found, value)``."""
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.metrics.counter("cache.memory_hits").inc()
                return True, self._memory[key]
            if self._backend is not None:
                payload = self._backend.load(key)
                if payload is not None:
                    try:
                        value = pickle.loads(payload)
                    except Exception:
                        # A payload we cannot decode is useless to every
                        # process — drop the entry, serve a miss.
                        self._backend.delete(key)
                    else:
                        self._remember(key, value)
                        self.metrics.counter("cache.disk_hits").inc()
                        return True, value
            self.metrics.counter("cache.misses").inc()
            return False, None

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key* in both layers (best effort on disk)."""
        with self._lock:
            self._remember(key, value)
            if self._backend is not None:
                try:
                    payload = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
                except Exception:
                    return  # unpicklable values live in memory only
                self._backend.store(key, payload)

    def clear_memory(self) -> None:
        """Empty the in-memory layer (the disk layer persists)."""
        with self._lock:
            self._memory.clear()

    def clear(self) -> None:
        """Empty both layers."""
        with self._lock:
            self._memory.clear()
            if self._backend is not None:
                self._backend.clear()

    def stats(self) -> dict:
        """Hit/miss counters plus sizes, as plain data."""
        with self._lock:
            disk_rows = (
                self._backend.count() if self._backend is not None else 0
            )
            snap = self.metrics.snapshot()
            memory_hits = snap.get("cache.memory_hits", 0)
            disk_hits = snap.get("cache.disk_hits", 0)
            misses = snap.get("cache.misses", 0)
            lookups = memory_hits + disk_hits + misses
            return {
                "backend": self.backend_name,
                "memory_entries": len(self._memory),
                "disk_entries": disk_rows,
                "memory_hits": memory_hits,
                "disk_hits": disk_hits,
                "misses": misses,
                "hit_rate": (
                    (memory_hits + disk_hits) / lookups if lookups else 0.0
                ),
                "persistent": self.persistent,
                "recoveries": self.recoveries,
                "transient_errors": self.transient_errors,
            }

    def close(self) -> None:
        with self._lock:
            if self._backend is not None:
                self._backend.close()

    # -- internals -------------------------------------------------------

    def _remember(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_size:
            self._memory.popitem(last=False)
