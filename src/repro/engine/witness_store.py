"""Cross-session index of NOT_CONTAINED counterexamples, replayed cheaply.

The catalog (:mod:`repro.engine.catalog`) compounds *positive* verdicts:
proven-equivalent OMQs short-circuit to CONTAINED.  This module is its
negative dual.  A NOT_CONTAINED verdict is self-certifying — it carries a
witness database ``D`` and a tuple ``c̄`` with ``c̄ ∈ Q1(D) \\ Q2(D)`` —
so persisting ``(hash(Q1), hash(Q2)) → (D, c̄)`` turns every future
re-decision of that pair (and of many structurally different pairs) into
at most two homomorphism-search evaluations instead of a full 2EXPTIME
decision procedure.

Replay for a candidate pair ``(h1, h2)`` (the scheduler tries it ahead
of the catalog and the cache):

1. **Exact pair** — a stored witness under exactly ``(h1, h2)`` is
   returned with *zero* evaluations.  Canonical hashes are isomorphism
   invariant and NOT_CONTAINED verdicts are only ever produced exactly
   (budget exhaustion yields UNKNOWN, never NOT_CONTAINED), so the stored
   fact ``c̄ ∈ Q1(D)`` and ``c̄ ∉ Q2(D)`` is a semantic fact about this
   very pair — independent of the chase/rewriting budgets either session
   used.
2. **One bounded candidate loop** over, in order: witnesses stored under
   the same LHS hash, then the same RHS hash (at most ``scan_limit``
   together), then up to ``scan_limit`` more stored under the same
   *predicate-signature pair* — the set of (predicate, arity) pairs each
   side mentions, see :func:`omq_signature`.  A stored side whose hash
   equals the candidate's is *known*: its half of the witness fact
   transfers as is.  Every side not known is re-established with the
   kernel hom-search:

   * ``c̄ ∈ Q1_cand(D)`` — membership, sound even from an inexact
     evaluation (a truncated chase under-approximates the certain
     answers, so membership in the approximation implies membership);
   * ``c̄ ∉ Q2_cand(D)`` — only an *exact* negative evaluation counts.

   A candidate with a known side runs under the job's own budgets; one
   with no known side (a *structural* replay, counted under
   ``engine.witness.structural.*``) under ``min(job budget,
   replay_budget)``.  A blown budget makes the negative evaluation
   inexact, which degrades that candidate to a miss — replay can stall,
   never lie.

A cross-pair hit is re-recorded under the candidate pair, so the second
time around it is an exact hit.  Any failure during a candidate check —
schema mismatch, budget blow-up, a corrupted row — degrades that
candidate to a miss; replay never raises.

Persistence is the durable-store contract of :mod:`repro.engine.durable`.
The schema-v1 → v2 signature-column migration rides its version stamp,
so a v1 store degrades to an empty rebuild, never to a replay attempt
over unkeyed rows; undecodable rows are skipped, never fatal.  The
in-memory index follows the kernel intern table's generation-stamped
rebuild contract: ``repro.clear_caches()`` and any
:meth:`InternTable.clear` bump trigger a lazy :meth:`reload` from the
serialized documents, so no deserialized object outlives an
invalidation.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
from collections import OrderedDict
from dataclasses import dataclass
from threading import RLock
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..containment.result import ContainmentResult, Witness, not_contained
from ..core.serialize import witness_from_json, witness_to_json
from ..kernel.instance import instance_signature
from ..kernel.intern import INTERN
from .durable import DurableStore, expected_stamps
from .metrics import MetricsRegistry
from .registry import register_instance_cache, unregister_cache

#: Bump when the witness store's sqlite layout changes.  "2" added the
#: per-side predicate-signature columns and the provenance column; a "1"
#: store is discarded and rebuilt (the stamp contract), never replayed.
WITNESS_SCHEMA_VERSION = "2"

#: How a store answers :meth:`WitnessStore.replay`:
#: ``structural`` — the exact-pair probe, then the candidate loop;
#: ``off`` — never replay (recording still works).
REPLAY_MODES = ("structural", "off")


def omq_signature(omq: Any) -> str:
    """The predicate-signature key of one OMQ side.

    The sorted ``pred/arity`` pairs of ``S ∪ sch(Σ)`` ∪ the query's
    predicates, comma-joined — everything the OMQ can mention, in a
    canonical spelling.  Atom reorderings, variable renamings, and
    redundant atoms over existing predicates all preserve it; a predicate
    rename does not.  Returns ``""`` (which never keys the structural
    index) when the argument has no well-formed schema.
    """
    try:
        relations = omq.full_schema().relations
    except Exception:
        return ""
    return ",".join(f"{p}/{a}" for p, a in sorted(relations.items()))


def instance_signature_key(database: Any) -> str:
    """The witness database's own signature, via the interned kernel view."""
    try:
        pairs = instance_signature(database)
    except Exception:
        return ""
    return ",".join(f"{p}/{a}" for p, a in sorted(pairs))


@dataclass(frozen=True)
class StoredWitness:
    """One persisted counterexample: the pair it refutes and its witness.

    ``lhs_sig``/``rhs_sig`` are the predicate-signature keys of the two
    sides (empty when the recording call site could not supply the OMQs);
    ``origin`` records provenance — ``"decided"`` for a fresh verdict,
    ``"hash-replay"``/``"structural-replay"`` for re-records of cross-pair
    hits.  ``doc`` is the canonical JSON document the witness was stored
    as; it is kept alongside the deserialized form so a generation-stamped
    :meth:`WitnessStore.reload` can rebuild every in-memory object from
    scratch without touching the disk file.
    """

    lhs: str
    rhs: str
    lhs_sig: str
    rhs_sig: str
    origin: str
    doc: str
    witness: Witness


_ROWS_SQL = (
    "SELECT lhs, rhs, lhs_sig, rhs_sig, origin, doc FROM witnesses ORDER BY rowid"
)
_V1_ROWS_SQL = (
    "SELECT lhs, rhs, '', '', 'decided', doc FROM witnesses ORDER BY rowid"
)


def _decode_row(row: Sequence[Any]) -> Optional[StoredWitness]:
    """One ``(lhs, rhs, lhs_sig, rhs_sig, origin, doc)`` row as a record;
    ``None`` when the document does not parse."""
    lhs, rhs, lhs_sig, rhs_sig, origin, doc = row
    try:
        witness = witness_from_json(json.loads(str(doc)))
    except Exception:
        return None
    return StoredWitness(
        str(lhs),
        str(rhs),
        str(lhs_sig or ""),
        str(rhs_sig or ""),
        str(origin or "decided"),
        str(doc),
        witness,
    )


class WitnessStore:
    """Persistent structural index of NOT_CONTAINED witnesses.

    ``path=None`` keeps the store in memory (still useful within one
    long-lived engine: witnesses survive result-cache eviction).  All
    operations are total — storage failures cost durability, never
    correctness, and :meth:`replay` degrades to a miss on any anomaly.

    Parameters
    ----------
    max_entries:
        Cap on stored witnesses; the oldest entry is evicted first
        (``engine.witness.evictions``).
    scan_limit:
        How many candidates each source (same-LHS/same-RHS hashes, and
        separately the signature index) may hand the candidate loop after
        the exact-pair probe misses.  Bounds the inline work a submission
        can spend before falling through to the full decision procedure.
    replay_mode:
        One of :data:`REPLAY_MODES`; ``"structural"`` by default.
    replay_budget:
        Per-evaluation step cap for a candidate with no known side
        (``min``-ed with the job's own budgets).  A check the budget
        cannot settle degrades that candidate to a miss.
    metrics:
        The registry the ``engine.witness.*`` counters land in; the
        :class:`~repro.engine.engine.BatchEngine` shares its own registry
        so the counters surface in ``stats()`` and ``/metrics``.
    """

    def __init__(
        self,
        path: Optional[str] = None,
        *,
        max_entries: int = 4096,
        scan_limit: int = 8,
        replay_mode: str = "structural",
        replay_budget: int = 20_000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if replay_mode not in REPLAY_MODES:
            raise ValueError(
                f"unknown replay_mode {replay_mode!r}; "
                f"choose from {REPLAY_MODES}"
            )
        self._lock = RLock()
        self.metrics = metrics
        self.max_entries = max(1, int(max_entries))
        self.scan_limit = max(0, int(scan_limit))
        self.replay_mode = replay_mode
        self.replay_budget = max(1, int(replay_budget))
        #: (lhs, rhs) -> StoredWitness, insertion-ordered for eviction.
        self._records: "OrderedDict[Tuple[str, str], StoredWitness]" = (
            OrderedDict()
        )
        self._by_lhs: Dict[str, List[Tuple[str, str]]] = {}
        self._by_rhs: Dict[str, List[Tuple[str, str]]] = {}
        #: (lhs_sig, rhs_sig) -> keys; rows with an empty signature on
        #: either side never enter (they cannot be structurally matched).
        self._by_signature: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}
        self.skipped_rows = 0
        self.replay_errors = 0
        self._generation = INTERN.generation
        self._db = DurableStore(
            path,
            [
                "CREATE TABLE IF NOT EXISTS witnesses "
                "(lhs TEXT, rhs TEXT, lhs_sig TEXT DEFAULT '', "
                "rhs_sig TEXT DEFAULT '', origin TEXT DEFAULT 'decided', "
                "doc TEXT, PRIMARY KEY (lhs, rhs))",
                "CREATE INDEX IF NOT EXISTS witnesses_by_signature "
                "ON witnesses (lhs_sig, rhs_sig)",
            ],
            WITNESS_SCHEMA_VERSION,
            load=self._load,
        )
        # clear_caches() reloads (re-deserializes) the in-memory index; it
        # never discards the durable facts.  Weakly registered, so a
        # closed-and-dropped store unregisters itself.
        self._registry_key = register_instance_cache(
            "engine.witness_store", self, "reload"
        )

    # -- metrics ----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        if self.metrics is not None and value:
            self.metrics.counter(name).inc(value)

    # -- persistence ------------------------------------------------------

    def _load(self, conn: sqlite3.Connection) -> None:
        for row in conn.execute(_ROWS_SQL):
            self._admit_locked(_decode_row(row))

    def _admit_locked(self, record: Optional[StoredWitness]) -> None:
        """Index a decoded row; a row that did not decode is counted."""
        if record is None:
            self.skipped_rows += 1
        else:
            self._index_locked(record)

    # -- the in-memory index ----------------------------------------------

    def _index_locked(self, record: StoredWitness) -> None:
        key = (record.lhs, record.rhs)
        if key in self._records:
            return
        self._records[key] = record
        self._by_lhs.setdefault(record.lhs, []).append(key)
        self._by_rhs.setdefault(record.rhs, []).append(key)
        if record.lhs_sig and record.rhs_sig:
            self._by_signature.setdefault(
                (record.lhs_sig, record.rhs_sig), []
            ).append(key)

    def _unindex_locked(self, key: Tuple[str, str]) -> None:
        record = self._records.pop(key, None)
        if record is None:
            return
        indexes: List[Tuple[Dict, Any]] = [
            (self._by_lhs, record.lhs),
            (self._by_rhs, record.rhs),
        ]
        if record.lhs_sig and record.rhs_sig:
            indexes.append(
                (self._by_signature, (record.lhs_sig, record.rhs_sig))
            )
        for index, index_key in indexes:
            keys = index.get(index_key)
            if keys is not None:
                try:
                    keys.remove(key)
                except ValueError:
                    pass
                if not keys:
                    del index[index_key]

    def _maybe_reload_locked(self) -> None:
        if INTERN.generation != self._generation:
            self._reload_locked()

    def _reload_locked(self) -> None:
        """Rebuild every in-memory object from the serialized documents.

        This is the generation-stamped invalidation contract: after an
        intern-table clear (``repro.clear_caches()`` or a direct
        ``INTERN.clear()``), nothing deserialized before the bump
        survives — each witness is re-parsed from its canonical JSON doc,
        so instances re-enter the (new) intern world lazily like any
        other fresh object.
        """
        old = list(self._records.values())
        self._records = OrderedDict()
        self._by_lhs = {}
        self._by_rhs = {}
        self._by_signature = {}
        for stale in old:
            row = (
                stale.lhs,
                stale.rhs,
                stale.lhs_sig,
                stale.rhs_sig,
                stale.origin,
                stale.doc,
            )
            self._admit_locked(_decode_row(row))
        self._generation = INTERN.generation

    # -- public API -------------------------------------------------------

    @property
    def persistent(self) -> bool:
        return self._db.persistent

    @property
    def recoveries(self) -> int:
        return self._db.recoveries

    @property
    def transient_errors(self) -> int:
        return self._db.transient_errors

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def record(
        self,
        h1: str,
        h2: str,
        witness: Witness,
        *,
        q1: Any = None,
        q2: Any = None,
        lhs_sig: str = "",
        rhs_sig: str = "",
        origin: str = "decided",
    ) -> bool:
        """Persist *witness* as a counterexample to ``hash h1 ⊆ hash h2``.

        Returns True iff the pair was new.  The first witness for a pair
        wins (any stored witness refutes the pair; churning rows buys
        nothing).  When the call site can supply the OMQs (``q1``/``q2``)
        or precomputed keys, the row is signature-keyed and joins the
        structural index; without them it still replays on the hash
        rungs.  Serialization failures drop the witness silently —
        durability is best-effort, correctness never depends on it.
        """
        if not lhs_sig and q1 is not None:
            lhs_sig = omq_signature(q1)
        if not rhs_sig and q2 is not None:
            rhs_sig = omq_signature(q2)
        with self._lock:
            self._maybe_reload_locked()
            key = (h1, h2)
            if key in self._records:
                return False
            try:
                doc = json.dumps(
                    witness_to_json(witness),
                    sort_keys=True,
                    separators=(",", ":"),
                )
            except Exception:
                return False
            self._index_locked(
                StoredWitness(h1, h2, lhs_sig, rhs_sig, origin, doc, witness)
            )
            self._count("engine.witness.stored")
            self._db.write(
                (
                    "INSERT OR REPLACE INTO witnesses "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    [(h1, h2, lhs_sig, rhs_sig, origin, doc)],
                )
            )
            evicted: List[tuple] = []
            while len(self._records) > self.max_entries:
                oldest = next(iter(self._records))
                self._unindex_locked(oldest)
                evicted.append(oldest)
            if evicted:
                self._count("engine.witness.evictions", len(evicted))
                self._db.write(
                    ("DELETE FROM witnesses WHERE lhs = ? AND rhs = ?", evicted)
                )
            return True

    def _candidates_locked(
        self, h1: str, h2: str, lhs_sig: str, rhs_sig: str
    ) -> List[StoredWitness]:
        """The bounded scan list: same-LHS then same-RHS hashes (at most
        ``scan_limit`` together), then at most ``scan_limit`` others
        under the same signature pair.  The exact pair is never among
        them: the caller has already answered it."""
        hashed = dict.fromkeys(
            itertools.islice(
                itertools.chain(
                    self._by_lhs.get(h1, ()), self._by_rhs.get(h2, ())
                ),
                self.scan_limit,
            )
        )
        similar = (
            key
            for key in self._by_signature.get((lhs_sig, rhs_sig), ())
            if key not in hashed
        )
        keys = [*hashed, *itertools.islice(similar, self.scan_limit)]
        return [self._records[key] for key in keys]

    def replay(self, job: Any) -> Optional[ContainmentResult]:
        """Try to refute *job* (a ContainmentJob) from stored witnesses.

        Returns a NOT_CONTAINED result with the replayed witness attached,
        or ``None`` (a miss — including every anomaly: schema mismatch,
        evaluation failure, inexact negative evidence, blown replay
        budget).  ``replay_mode="off"`` misses unconditionally.
        """
        if self.replay_mode == "off":
            return None
        if getattr(job, "kind", None) != "containment":
            return None
        if not hasattr(job, "content_hashes"):
            return None
        h1, h2 = job.content_hashes()
        lhs_sig = omq_signature(getattr(job, "q1", None))
        rhs_sig = omq_signature(getattr(job, "q2", None))
        with self._lock:
            self._maybe_reload_locked()
            exact = self._records.get((h1, h2))
            if exact is not None:
                self._count("engine.witness.hits")
                self._count("engine.witness.exact_hits")
                return not_contained(
                    "witness-replay",
                    exact.witness.database,
                    exact.witness.answer,
                    "stored witness for this exact canonical pair",
                )
            candidates = self._candidates_locked(h1, h2, lhs_sig, rhs_sig)
        # Evaluations run outside the lock: a hom-check is cheap but not
        # free, and replay must never serialize concurrent submitters.
        for candidate in candidates:
            structural = candidate.lhs != h1 and candidate.rhs != h2
            self._count("engine.witness.replays")
            if structural:
                self._count("engine.witness.structural.attempts")
            result = self._check(job, h1, h2, candidate)
            if result is not None:
                # Re-record under the candidate pair: next time it is an
                # exact (zero-evaluation) hit.
                self.record(
                    h1,
                    h2,
                    result.witness,
                    lhs_sig=lhs_sig,
                    rhs_sig=rhs_sig,
                    origin="structural-replay" if structural else "hash-replay",
                )
                self._count("engine.witness.hits")
                if structural:
                    self._count("engine.witness.structural.hits")
                return result
        self._count("engine.witness.misses")
        return None

    def _job_budgets(self, job: Any, cap: Optional[int]) -> Dict[str, Any]:
        """Evaluation kwargs from the job's budgets, optionally capped."""
        steps = getattr(job, "chase_max_steps", 200_000)
        kwargs: Dict[str, Any] = {
            "chase_max_steps": min(steps, cap) if cap else steps,
            "chase_max_depth": getattr(job, "chase_max_depth", None),
        }
        budget = getattr(job, "rewriting_budget", None)
        if cap:
            kwargs["rewriting_budget"] = (
                min(budget, cap) if budget is not None else cap
            )
        elif budget is not None:
            kwargs["rewriting_budget"] = budget
        return kwargs

    def _check(
        self, job: Any, h1: str, h2: str, candidate: StoredWitness
    ) -> Optional[ContainmentResult]:
        """Does *candidate*'s witness ``(D, c̄)`` refute *job*'s pair?

        A side whose canonical hash matches the stored side is known
        (NOT_CONTAINED verdicts are exact, so the stored membership or
        non-membership is a semantic fact about that hash) and is not
        re-checked.  Each other side is evaluated:

        1. ``c̄ ∈ Q1(D)`` — membership, sound even when the evaluation is
           inexact;
        2. ``c̄ ∉ Q2(D)`` — and the evaluation is *exact*; an inexact
           (truncated) evaluation under-approximates Q2's answers, so
           its silence proves nothing.

        With a known side the job's own budgets apply; with none, both
        checks are capped by ``replay_budget`` and a disconfirmed
        candidate counts as ``engine.witness.structural.refuted_replays``.
        An exception degrades the candidate to a miss (``replay_errors``).
        """
        from ..evaluation import evaluate_omq

        lhs_known, rhs_known = candidate.lhs == h1, candidate.rhs == h2
        structural = not (lhs_known or rhs_known)
        witness = candidate.witness
        kwargs = self._job_budgets(
            job, self.replay_budget if structural else None
        )
        try:
            confirmed = lhs_known or witness.answer in (
                evaluate_omq(job.q1, witness.database, **kwargs).answers
            )
            if confirmed and not rhs_known:
                rhs = evaluate_omq(job.q2, witness.database, **kwargs)
                confirmed = rhs.exact and witness.answer not in rhs.answers
        except Exception:
            # Anything — schema mismatch, arity mismatch, a budget
            # exception — degrades this candidate to a miss.
            self.replay_errors += 1
            return None
        if not confirmed:
            if structural:
                self._count("engine.witness.structural.refuted_replays")
            return None
        if lhs_known:
            detail = (
                f"stored witness for lhs {h1[:12]} replayed "
                "against the candidate RHS"
            )
        elif rhs_known:
            detail = (
                f"stored witness for rhs {h2[:12]} replayed "
                "against the candidate LHS"
            )
        else:
            detail = (
                "structural replay: signature-compatible witness "
                f"for {candidate.lhs[:12]} ⊄ {candidate.rhs[:12]} "
                "re-confirmed against both candidate sides"
            )
        return not_contained(
            "witness-replay", witness.database, witness.answer, detail
        )

    @staticmethod
    def _entry_dict(record: StoredWitness) -> Dict[str, Any]:
        return {
            "lhs": record.lhs,
            "rhs": record.rhs,
            "lhs_sig": record.lhs_sig,
            "rhs_sig": record.rhs_sig,
            "origin": record.origin,
            "db_sig": instance_signature_key(record.witness.database),
            "atoms": len(record.witness.database.atoms),
            "answer": [str(t) for t in record.witness.answer],
        }

    def entries(self) -> List[Dict[str, Any]]:
        """A listing for inspection: one dict per stored pair, insertion
        order preserved.  Prefer :meth:`iter_entries` (or the read-only
        classmethod :meth:`scan`) for large stores."""
        return list(self.iter_entries())

    def iter_entries(
        self, limit: Optional[int] = None
    ) -> Iterator[Dict[str, Any]]:
        """Stream up to *limit* entry dicts without materializing them all.

        The record list is snapshotted under the lock (references only);
        rendering happens outside it.
        """
        with self._lock:
            self._maybe_reload_locked()
            records = list(self._records.values())
        if limit is not None:
            records = records[: max(0, limit)]
        for record in records:
            yield self._entry_dict(record)

    @classmethod
    def scan(
        cls, path: str, *, limit: Optional[int] = None
    ) -> Tuple[Dict[str, Any], Iterator[Dict[str, Any]]]:
        """Read-only streaming view of a store *file*: ``(stats, rows)``.

        Unlike constructing a :class:`WitnessStore` (which loads every
        row into the in-memory index, and — per the stamp contract —
        *discards* a version-mismatched file), ``scan`` opens the sqlite
        file read-only, computes the stats with SQL aggregates, and
        yields at most *limit* decoded rows lazily.  Inspection of an
        arbitrarily large or foreign-versioned store is O(limit) memory
        and never mutates the file.  Raises :class:`ValueError` when the
        file is not a readable witness store.
        """
        try:
            conn = sqlite3.connect(
                f"file:{path}?mode=ro", uri=True, check_same_thread=False
            )
        except sqlite3.Error as exc:
            raise ValueError(str(exc)) from None
        try:
            try:
                stamps = dict(conn.execute("SELECT key, value FROM meta"))
                entries, lhs_keys, rhs_keys = conn.execute(
                    "SELECT COUNT(*), COUNT(DISTINCT lhs), "
                    "COUNT(DISTINCT rhs) FROM witnesses"
                ).fetchone()
            except sqlite3.Error as exc:
                raise ValueError(f"not a witness store: {exc}") from None
        except ValueError:
            conn.close()
            raise
        expected = expected_stamps(WITNESS_SCHEMA_VERSION)
        stats = {
            "entries": int(entries),
            "lhs_keys": int(lhs_keys),
            "rhs_keys": int(rhs_keys),
            "schema_version": stamps.get("schema_version", ""),
            "canon_version": stamps.get("canon_version", ""),
            "current": stamps == expected,
        }

        def _rows() -> Iterator[Dict[str, Any]]:
            try:
                try:
                    cursor = conn.execute(_ROWS_SQL)
                except sqlite3.Error:
                    # A schema-v1 file has no signature columns; it still
                    # deserves a listing (replay would discard it, but
                    # inspection must not).
                    cursor = conn.execute(_V1_ROWS_SQL)
                yielded = 0
                for row in cursor:
                    if limit is not None and yielded >= limit:
                        break
                    record = _decode_row(row)
                    if record is None:
                        continue  # a bad row is skipped, never fatal
                    yielded += 1
                    yield cls._entry_dict(record)
            finally:
                conn.close()

        return stats, _rows()

    def reload(self) -> None:
        """Drop and rebuild the in-memory index from serialized docs."""
        with self._lock:
            self._reload_locked()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._records),
                "lhs_keys": len(self._by_lhs),
                "rhs_keys": len(self._by_rhs),
                "signature_keys": len(self._by_signature),
                "max_entries": self.max_entries,
                "scan_limit": self.scan_limit,
                "replay_mode": self.replay_mode,
                "replay_budget": self.replay_budget,
                "persistent": self.persistent,
                "generation": self._generation,
                "recoveries": self.recoveries,
                "transient_errors": self.transient_errors,
                "skipped_rows": self.skipped_rows,
                "replay_errors": self.replay_errors,
            }

    def clear(self) -> None:
        """Forget every witness (memory and disk)."""
        with self._lock:
            self._records = OrderedDict()
            self._by_lhs = {}
            self._by_rhs = {}
            self._by_signature = {}
            self._db.write(("DELETE FROM witnesses", [()]))

    def close(self) -> None:
        with self._lock:
            unregister_cache(self._registry_key)
            self._db.close()

    def __enter__(self) -> "WitnessStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
