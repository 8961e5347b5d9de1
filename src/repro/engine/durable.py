"""The one durable-store contract behind the engine's sqlite files.

The result cache's sqlite backend (:mod:`repro.engine.cache`), the
equivalence catalog (:mod:`repro.engine.catalog`) and the witness store
(:mod:`repro.engine.witness_store`) keep facts across processes.  Each
hands this module its DDL and schema version; :class:`DurableStore`
owns everything else:

* **Connection**: WAL journaling plus a busy timeout, so several
  processes (parallel batch runs, CI shards, serve replicas) share one
  file and a concurrent commit waits instead of failing.
* **Stamps**: a ``meta`` table records the schema version and
  :data:`~repro.engine.canon.CANON_VERSION`.  A canon bump makes every
  stored hash a dead dialect, so a file with other stamps is discarded
  and rebuilt, never migrated.
* **Corruption** (a file that is not a database, a stale stamp, any
  ``sqlite3.DatabaseError``): the main file and its ``-wal``/``-shm``
  companions are deleted and the store rebuilt empty, counted in
  ``recoveries``.  If the rebuild fails too, the store runs memory-only.
* **Contention** (``sqlite3.OperationalError``: ``database is locked``,
  I/O hiccups): the transaction rolls back and the failure is counted in
  ``transient_errors``; the file stays, because other processes rely on
  it, and the next write tries again on the same connection.
* **Totality**: no method raises.  A store that cannot open at all runs
  memory-only (``persistent`` is False); durability is best effort and
  correctness never depends on it.

The owner holds its own lock around every call: a store is safe across
processes, not across threads of one process.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .canon import CANON_VERSION

#: How long a connection waits on a locked database before giving up.
#: Kept module-level so tests can shrink it without a 5s stall.
_BUSY_TIMEOUT_MS = 5_000

_META_DDL = "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"


def expected_stamps(schema_version: str) -> Dict[str, str]:
    """The ``meta`` rows a current file of *schema_version* carries."""
    return {"schema_version": schema_version, "canon_version": CANON_VERSION}


class DurableStore:
    """One sqlite file under the durable-store contract.

    ``path=None`` gives a store that is memory-only from the start.
    *ddl* creates the owner's tables (``IF NOT EXISTS``); *load*, when
    given, reads an existing file's rows into the owner's memory while
    the file is being opened, so a failure there is handled like any
    other open failure.
    """

    def __init__(
        self,
        path: Optional[str],
        ddl: Sequence[str],
        schema_version: str,
        load: Optional[Callable[[sqlite3.Connection], None]] = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self._ddl = (_META_DDL, *ddl)
        self._stamps = expected_stamps(schema_version)
        self.recoveries = 0
        self.transient_errors = 0
        self.conn: Optional[sqlite3.Connection] = None
        if self.path is not None:
            self._open(load)

    @property
    def persistent(self) -> bool:
        """Whether writes currently reach the file."""
        return self.conn is not None

    # -- opening ----------------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        # WAL probes the file header, so a corrupt file fails here (as a
        # DatabaseError) before any query runs.
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_MS)}")
        for statement in self._ddl:
            conn.execute(statement)
        return conn

    def _stamp(self, conn: sqlite3.Connection) -> None:
        conn.executemany(
            "INSERT OR REPLACE INTO meta VALUES (?, ?)",
            sorted(self._stamps.items()),
        )
        conn.commit()

    def _open(
        self, load: Optional[Callable[[sqlite3.Connection], None]]
    ) -> None:
        assert self.path is not None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.conn = self._connect()
            stamps = dict(self.conn.execute("SELECT key, value FROM meta"))
            if stamps and stamps != self._stamps:
                self.close()
                self._discard_file()
                self.conn = self._connect()
                stamps = {}
            if not stamps:
                self._stamp(self.conn)
            if load is not None:
                load(self.conn)
        except sqlite3.OperationalError:
            # Locked, busy or unopenable: run memory-only for now, but
            # leave the shared file alone — another process may be using
            # it perfectly well.
            self.transient_errors += 1
            self.close()
        except (sqlite3.Error, OSError):
            self._recover()

    def _discard_file(self) -> None:
        self.recoveries += 1
        for suffix in ("", "-wal", "-shm"):
            try:
                os.unlink(str(self.path) + suffix)
            except OSError:
                pass

    # -- failure handling -------------------------------------------------

    def _degrade(self) -> None:
        """A transient failure: count it and roll back; keep the file."""
        self.transient_errors += 1
        if self.conn is not None:
            try:
                self.conn.rollback()
            except sqlite3.Error:
                pass

    def _recover(self) -> None:
        """Genuine corruption: discard the file and rebuild it empty; run
        memory-only if even that fails."""
        self.close()
        self._discard_file()
        try:
            conn = self._connect()
            self._stamp(conn)
            self.conn = conn
        except (sqlite3.Error, OSError):
            self.conn = None

    # -- the operations ---------------------------------------------------

    def read(self, sql: str, params: tuple = ()) -> Optional[List[tuple]]:
        """Every row *sql* selects, or ``None`` (memory-only or failure)."""
        if self.conn is None:
            return None
        try:
            return self.conn.execute(sql, params).fetchall()
        except sqlite3.OperationalError:
            self._degrade()
        except sqlite3.Error:
            self._recover()
        return None

    def write(self, *statements: Tuple[str, Iterable[tuple]]) -> None:
        """Run each ``(sql, rows)`` over its rows and commit them together
        (best effort)."""
        if self.conn is None:
            return
        try:
            for sql, rows in statements:
                self.conn.executemany(sql, list(rows))
            self.conn.commit()
        except sqlite3.OperationalError:
            self._degrade()
        except sqlite3.Error:
            self._recover()

    def close(self) -> None:
        """Release the connection; the store is memory-only from here on."""
        if self.conn is not None:
            try:
                self.conn.close()
            except sqlite3.Error:
                pass
            self.conn = None
