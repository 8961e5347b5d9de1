"""The engine's result cache: the front's memory layer, the backend
registry, sqlite-specific regressions (WAL mode, lock-degrade semantics,
stale version stamps), and the process-wide cache registry behind
``repro.clear_caches()``.

Behaviour every backend must share (round-trips, persistence, corruption
degrade, two-process contention) lives in the parametrized conformance
suite ``test_cache_backends.py``.
"""

import sqlite3

import pytest

import repro
from repro import OMQ, Schema, parse_cq, parse_tgds
from repro.engine import cache as cache_module
from repro.engine import durable
from repro.engine.cache import (
    _DB_NAME,
    BACKENDS,
    CacheBackend,
    ResultCache,
    ShardedDirBackend,
    SqliteBackend,
    available_backends,
    register_backend,
)
from repro.evaluation import cached_rewriting, evaluate_omq


class TestMemoryLayer:
    def test_roundtrip(self):
        cache = ResultCache()
        assert cache.get("k") == (False, None)
        cache.put("k", {"answer": 42})
        assert cache.get("k") == (True, {"answer": 42})

    def test_lru_eviction(self):
        cache = ResultCache(memory_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now least recent
        cache.put("c", 3)
        assert cache.get("a") == (True, 1)
        assert cache.get("b") == (False, None)
        assert cache.get("c") == (True, 3)

    def test_not_persistent_without_dir(self):
        assert not ResultCache().persistent

    def test_stats_shape(self):
        cache = ResultCache()
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["memory_hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["backend"] == "memory"


class TestBackendRegistry:
    def test_builtins_registered(self):
        assert BACKENDS["sqlite"] is SqliteBackend
        assert BACKENDS["sharded"] is ShardedDirBackend
        assert available_backends() == ("memory", "sharded", "sqlite")

    def test_unknown_backend_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="sharded"):
            ResultCache(str(tmp_path), backend="bogus")

    def test_non_string_non_backend_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            ResultCache(str(tmp_path), backend=42)

    def test_memory_name_means_no_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path), backend="memory")
        assert not cache.persistent
        assert cache.backend_name == "memory"
        cache.close()

    def test_no_cache_dir_means_no_disk(self):
        cache = ResultCache(None, backend="sqlite")
        assert not cache.persistent
        cache.close()

    def test_backend_instance_used_as_is(self, tmp_path):
        backend = ShardedDirBackend(str(tmp_path))
        cache = ResultCache(str(tmp_path), backend=backend)
        assert cache._backend is backend
        assert cache.backend_name == "sharded"
        cache.put("k", "v")
        cache.clear_memory()
        assert cache.get("k") == (True, "v")
        cache.close()

    def test_register_backend_plugs_into_names(self, tmp_path, monkeypatch):
        class NullBackend(CacheBackend):
            name = "null"
            persistent = False

            def __init__(self, cache_dir):
                super().__init__()

            def load(self, key):
                return None

            def store(self, key, payload):
                pass

            def delete(self, key):
                pass

            def clear(self):
                pass

            def count(self):
                return 0

        monkeypatch.setitem(cache_module.BACKENDS, "null", NullBackend)
        assert "null" in available_backends()
        cache = ResultCache(str(tmp_path), backend="null")
        cache.put("k", "v")
        cache.clear_memory()
        assert cache.get("k") == (False, None)  # NullBackend drops bytes
        cache.close()

    def test_register_backend_function(self, monkeypatch):
        registered = dict(cache_module.BACKENDS)
        monkeypatch.setattr(cache_module, "BACKENDS", registered)

        class Dummy(CacheBackend):
            name = "dummy"

        register_backend("dummy", Dummy)
        assert registered["dummy"] is Dummy


class TestSqliteRegressions:
    def test_disk_layer_opens_in_wal_mode(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        mode = (
            cache._backend._db.conn.execute("PRAGMA journal_mode").fetchone()[0]
        )
        assert mode == "wal"
        cache.close()

    def test_corrupted_file_is_rebuilt(self, tmp_path):
        c1 = ResultCache(str(tmp_path))
        c1.put("k", "v")
        c1.close()
        (tmp_path / _DB_NAME).write_bytes(b"\x00garbage, not sqlite\xff" * 64)
        c2 = ResultCache(str(tmp_path))
        # The bad file was discarded; the cache still works.
        assert c2.recoveries == 1
        assert c2.persistent
        assert c2.get("k") == (False, None)
        c2.put("k2", "v2")
        c2.clear_memory()
        assert c2.get("k2") == (True, "v2")
        c2.close()

    def test_stale_version_is_discarded(self, tmp_path):
        c1 = ResultCache(str(tmp_path))
        c1.put("k", "v")
        c1.close()
        conn = sqlite3.connect(str(tmp_path / _DB_NAME))
        conn.execute(
            "UPDATE meta SET value = '0-stale' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        c2 = ResultCache(str(tmp_path))
        assert c2.recoveries == 1
        assert c2.get("k") == (False, None)  # old rows gone
        c2.close()

    def test_locked_database_degrades_without_deletion(
        self, tmp_path, monkeypatch
    ):
        # Regression: a "database is locked" OperationalError used to be
        # treated like corruption — the shared cache file was deleted out
        # from under every other process using it.  Now it only costs the
        # one store: recoveries stays 0, the file stays put, and the
        # cache recovers as soon as the lock clears.
        monkeypatch.setattr(durable, "_BUSY_TIMEOUT_MS", 50)
        cache = ResultCache(str(tmp_path))
        cache.put("before", "v")

        locker = sqlite3.connect(str(tmp_path / _DB_NAME))
        locker.execute("BEGIN IMMEDIATE")  # hold the write lock
        try:
            cache.put("during", "w")  # write blocked -> transient degrade
            stats = cache.stats()
            assert stats["recoveries"] == 0
            assert stats["transient_errors"] >= 1
            assert (tmp_path / _DB_NAME).exists()
            assert cache.persistent
            # The value still landed in the memory layer.
            assert cache.get("during") == (True, "w")
        finally:
            locker.rollback()
            locker.close()

        # Lock released: disk writes work again on the same connection.
        cache.put("after", "x")
        cache.clear_memory()
        assert cache.get("before") == (True, "v")
        assert cache.get("after") == (True, "x")
        assert cache.recoveries == 0
        cache.close()


class TestShardedLayout:
    def test_version_stamped_directory(self, tmp_path):
        cache = ResultCache(str(tmp_path), backend="sharded")
        cache.put("k", "v")
        roots = [p.name for p in tmp_path.iterdir() if p.is_dir()]
        assert len(roots) == 1
        assert roots[0].startswith("repro-cache-shards-v")
        cache.close()

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(str(tmp_path), backend="sharded")
        for i in range(10):
            cache.put(f"k{i}", i)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        assert cache.stats()["disk_entries"] == 10
        cache.close()


class TestCacheRegistry:
    def test_clear_caches_reports_registrations(self):
        # The evaluation module registers four lru_caches at import time.
        assert repro.clear_caches() >= 4

    def test_clear_caches_empties_evaluation_memos(self):
        omq = OMQ(
            Schema.of(P=1),
            tuple(parse_tgds("P(x) -> R(x, w)\nR(x, y) -> P(y)")),
            parse_cq("q(x) :- P(x)"),
        )
        cached_rewriting(omq, 1_000)
        assert cached_rewriting.cache_info().currsize > 0
        repro.clear_caches()
        assert cached_rewriting.cache_info().currsize == 0

    def test_clear_caches_empties_engine_memory(self, tmp_path):
        from repro.engine import BatchEngine, ContainmentJob

        omq = OMQ(Schema.of(P=1), (), parse_cq("q(x) :- P(x)"))
        engine = BatchEngine(cache_dir=str(tmp_path))
        engine.run_batch([ContainmentJob(omq, omq)])
        assert engine.cache.stats()["memory_entries"] == 1
        repro.clear_caches()
        assert engine.cache.stats()["memory_entries"] == 0
        # The disk layer survives a registry clear (it is persistent state).
        assert engine.cache.get(
            ContainmentJob(omq, omq).cache_key()
        )[0]
        engine.close()

    def test_evaluation_still_correct_after_clear(self):
        # Clearing mid-flight must not change any answer.
        omq = OMQ(
            Schema.of(P=1, T=1),
            tuple(parse_tgds("T(x) -> P(x)")),
            parse_cq("q(x) :- P(x)"),
        )
        db = repro.parse_database("T(a). P(b).")
        before = evaluate_omq(omq, db).answers
        repro.clear_caches()
        after = evaluate_omq(omq, db).answers
        assert before == after
