"""Conformance suite for the durable-store contract (``repro.engine.durable``).

One contract, three sqlite stores: the result cache's sqlite backend,
the OMQ equivalence catalog and the witness store.  Every test runs
against each of them through a small adapter that knows the store's
constructor, file, main table and one way to write a fact:

* a corrupt file is discarded and rebuilt (``recoveries == 1``) and the
  store stays persistent;
* a stale version stamp is discarded the same way;
* a locked database costs transient errors only — no recovery, the file
  stays, and writes resume once the lock is released;
* two processes can share one file;
* a path that cannot be opened leaves the store memory-only.
"""

import json
import sqlite3
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.containment.result import Witness
from repro.core.atoms import Atom
from repro.core.instance import Instance
from repro.core.terms import Constant
from repro.engine import durable
from repro.engine.cache import ResultCache
from repro.engine.catalog import OMQCatalog
from repro.engine.witness_store import WitnessStore

_WITNESS = Witness(Instance.of([Atom("E", (Constant("a"), Constant("b")))]), ())


@dataclass(frozen=True)
class StoreKind:
    """How the suite drives one store."""

    name: str
    #: The store's sqlite file, relative to the directory under test.
    filename: str
    #: The table each write adds one row to.
    table: str
    #: Build the store over a directory.
    make: Callable[[Path], Any]
    #: Write one fact under *key*.
    write: Callable[[Any, str], None]

    def open(self, directory: Path) -> Any:
        return self.make(Path(directory))

    def rows(self, directory: Path) -> int:
        conn = sqlite3.connect(str(Path(directory) / self.filename))
        try:
            (count,) = conn.execute(f"SELECT COUNT(*) FROM {self.table}").fetchone()
            return count
        finally:
            conn.close()


_KINDS = (
    StoreKind(
        "cache",
        "repro-cache.sqlite",
        "results",
        lambda d: ResultCache(str(d), backend="sqlite"),
        lambda store, key: store.put(key, key),
    ),
    StoreKind(
        "catalog",
        "catalog.sqlite",
        "edges",
        lambda d: OMQCatalog(str(d / "catalog.sqlite")),
        lambda store, key: store.note_contained(key, key + "'"),
    ),
    StoreKind(
        "witness_store",
        "witnesses.sqlite",
        "witnesses",
        lambda d: WitnessStore(str(d / "witnesses.sqlite")),
        lambda store, key: store.record(key, key + "'", _WITNESS),
    ),
)
STORES = {kind.name: kind for kind in _KINDS}


@pytest.fixture(params=sorted(STORES))
def kind(request):
    return STORES[request.param]


class TestDurableContract:
    def test_fresh_store_is_stamped_and_persistent(self, kind, tmp_path):
        store = kind.open(tmp_path)
        kind.write(store, "k")
        assert store.persistent
        assert (store.recoveries, store.transient_errors) == (0, 0)
        store.close()
        assert kind.rows(tmp_path) == 1
        conn = sqlite3.connect(str(tmp_path / kind.filename))
        stamps = dict(conn.execute("SELECT key, value FROM meta"))
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        conn.close()
        assert set(stamps) == {"schema_version", "canon_version"}
        assert mode == "wal"

    def test_corrupt_file_is_rebuilt(self, kind, tmp_path):
        store = kind.open(tmp_path)
        kind.write(store, "old")
        store.close()
        (tmp_path / kind.filename).write_bytes(b"\x00not sqlite\xff" * 64)
        store = kind.open(tmp_path)
        assert store.recoveries == 1
        assert store.persistent
        kind.write(store, "new")
        store.close()
        assert kind.rows(tmp_path) == 1

    def test_stale_stamp_is_discarded(self, kind, tmp_path):
        store = kind.open(tmp_path)
        kind.write(store, "old")
        store.close()
        conn = sqlite3.connect(str(tmp_path / kind.filename))
        conn.execute(
            "UPDATE meta SET value = '0-stale' WHERE key = 'schema_version'"
        )
        conn.commit()
        conn.close()
        store = kind.open(tmp_path)
        assert store.recoveries == 1
        assert store.persistent
        store.close()
        assert kind.rows(tmp_path) == 0

    def test_locked_database_is_transient(self, kind, tmp_path, monkeypatch):
        monkeypatch.setattr(durable, "_BUSY_TIMEOUT_MS", 50)
        store = kind.open(tmp_path)
        kind.write(store, "before")
        locker = sqlite3.connect(str(tmp_path / kind.filename))
        locker.execute("BEGIN IMMEDIATE")  # hold the write lock
        try:
            kind.write(store, "during")
            assert store.transient_errors >= 1
            assert store.recoveries == 0
            assert store.persistent
            assert (tmp_path / kind.filename).exists()
        finally:
            locker.rollback()
            locker.close()
        kind.write(store, "after")
        assert store.recoveries == 0
        store.close()
        assert kind.rows(tmp_path) == 2  # "during" lost, nothing else

    def test_two_processes_share_one_file(self, kind, tmp_path):
        tests_dir = Path(__file__).resolve().parent
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(tests_dir)!r})\n"
            "from pathlib import Path\n"
            "from test_durable import STORES\n"
            "name, directory, tag = sys.argv[1:4]\n"
            "kind = STORES[name]\n"
            "store = kind.open(Path(directory))\n"
            "for i in range(20):\n"
            "    kind.write(store, f'{tag}{i}')\n"
            "print(json.dumps({'recoveries': store.recoveries,\n"
            "                  'persistent': store.persistent}))\n"
            "store.close()\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, kind.name, str(tmp_path), tag],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={"PYTHONPATH": str(tests_dir.parent / "src")},
            )
            for tag in ("a", "b")
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))
        assert reports == [{"recoveries": 0, "persistent": True}] * 2
        assert kind.rows(tmp_path) == 40
        store = kind.open(tmp_path)
        assert store.recoveries == 0
        store.close()

    def test_unopenable_path_runs_memory_only(self, kind, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        store = kind.open(blocker / "sub")
        assert not store.persistent
        kind.write(store, "k")  # total: no exception, memory only
        store.close()
