"""``repro.engine`` — the batch containment engine.

A service-shaped layer over the per-call library API:

* :mod:`~repro.engine.canon` — isomorphism-invariant canonical forms and
  content hashes for CQs, tgd sets, instances, and OMQs (the cache-key
  algebra);
* :mod:`~repro.engine.cache` — a persistent, corruption-tolerant result
  store fronted by an in-memory LRU, over pluggable byte backends
  (sqlite WAL, sharded directory, memory — :data:`BACKENDS`);
* :mod:`~repro.engine.catalog` — the cross-session catalog of
  proven-equivalent OMQ groups (persistent union-find over canonical
  hashes) that lets later sessions skip recomputation entirely;
* :mod:`~repro.engine.witness_store` — the catalog's negative dual: a
  persistent store of NOT_CONTAINED counterexamples, replayed as single
  hom-checks ahead of the full decision procedures;
* :mod:`~repro.engine.durable` — the one sqlite durable-store contract
  (WAL, busy timeout, version stamps, rebuild on corruption, transient
  errors on contention) under the cache's sqlite backend, the catalog
  and the witness store;
* :mod:`~repro.engine.pool` — a crash-isolated multiprocessing pool with
  per-task timeouts and a deterministic serial fallback;
* :mod:`~repro.engine.scheduler` — async submission (:class:`JobHandle`,
  ``as_completed`` streaming) with canonical-key dedup of in-flight
  work, :class:`Priority` classes with starvation-free aging, and
  weighted fair share across submitters;
* :mod:`~repro.engine.engine` — the :class:`BatchEngine` façade tying the
  pieces together, with a containment-matrix helper;
* :mod:`~repro.engine.metrics` — counters/timers behind ``stats()``;
* :mod:`~repro.engine.registry` — the process-wide clearable-cache
  registry behind ``repro.clear_caches()``.

Exports resolve lazily (PEP 562).  This is load-bearing, not cosmetic:
the homomorphism kernel (:mod:`repro.kernel`) sits *below* the core data
model yet reports through :mod:`~repro.engine.metrics` and
:mod:`~repro.engine.registry` — both dependency-free leaf modules.  An
eager ``__init__`` here would pull :mod:`~repro.engine.canon` (which needs
``core.queries``) into the kernel's import chain and close an import
cycle.
"""

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .cache import (
        BACKENDS,
        CacheBackend,
        ResultCache,
        ShardedDirBackend,
        SqliteBackend,
        available_backends,
        register_backend,
    )
    from .catalog import OMQCatalog
    from .canon import (
        CANON_VERSION,
        CanonicalForm,
        canonical_cq,
        canonical_instance,
        canonical_omq,
        canonical_tgd,
        canonical_tgds,
        canonical_ucq,
        hash_cq,
        hash_instance,
        hash_omq,
        hash_tgds,
        hash_ucq,
    )
    from .engine import BatchEngine
    from .jobs import (
        ClassificationOutcome,
        ClassifyJob,
        ContainmentJob,
        JobResult,
        RewriteJob,
    )
    from .metrics import MetricsRegistry, render_prometheus
    from .pool import PoolTicket, TaskOutcome, WorkerPool
    from .registry import clear_caches, register_cache, registered_caches
    from .scheduler import (
        DEADLINE,
        DeadlinePolicy,
        JobHandle,
        Priority,
        Scheduler,
    )
    from .witness_store import WITNESS_SCHEMA_VERSION, WitnessStore

#: export name -> defining submodule (relative to this package)
_EXPORTS = {
    "CANON_VERSION": ".canon",
    "CanonicalForm": ".canon",
    "canonical_cq": ".canon",
    "canonical_instance": ".canon",
    "canonical_omq": ".canon",
    "canonical_tgd": ".canon",
    "canonical_tgds": ".canon",
    "canonical_ucq": ".canon",
    "hash_cq": ".canon",
    "hash_instance": ".canon",
    "hash_omq": ".canon",
    "hash_tgds": ".canon",
    "hash_ucq": ".canon",
    "BACKENDS": ".cache",
    "CacheBackend": ".cache",
    "ResultCache": ".cache",
    "ShardedDirBackend": ".cache",
    "SqliteBackend": ".cache",
    "available_backends": ".cache",
    "register_backend": ".cache",
    "OMQCatalog": ".catalog",
    "BatchEngine": ".engine",
    "ClassificationOutcome": ".jobs",
    "ClassifyJob": ".jobs",
    "ContainmentJob": ".jobs",
    "JobResult": ".jobs",
    "RewriteJob": ".jobs",
    "MetricsRegistry": ".metrics",
    "render_prometheus": ".metrics",
    "PoolTicket": ".pool",
    "TaskOutcome": ".pool",
    "WorkerPool": ".pool",
    "clear_caches": ".registry",
    "register_cache": ".registry",
    "registered_caches": ".registry",
    "DEADLINE": ".scheduler",
    "DeadlinePolicy": ".scheduler",
    "JobHandle": ".scheduler",
    "Priority": ".scheduler",
    "Scheduler": ".scheduler",
    "WITNESS_SCHEMA_VERSION": ".witness_store",
    "WitnessStore": ".witness_store",
}

_SUBMODULES = {
    "cache",
    "canon",
    "catalog",
    "engine",
    "jobs",
    "metrics",
    "pool",
    "registry",
    "scheduler",
    "witness_store",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is not None:
        value = getattr(import_module(target, __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
