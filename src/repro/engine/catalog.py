"""Cross-session catalog of OMQ groups proven semantically equivalent.

The result cache answers "have I seen *this question* before?"; the
catalog answers the stronger "have I proven *these OMQs interchangeable*
before?".  It records directed containment facts between canonical OMQ
hashes (:func:`repro.engine.canon.hash_omq`) — from EQUIVALENT verdict
pairs, and from any two CONTAINED edges whose reps close a cycle — and
condenses the strongly connected components of that fact graph into
equivalence groups with a union-find.  The payoff compounds across
sessions:

* a containment job whose two sides land in the same group is answered
  instantly (verdict CONTAINED, procedure ``"catalog-equivalence"``)
  without touching cache or pool — even if the original cache rows were
  evicted long ago;
* containment cache keys are built from group *representatives* rather
  than raw hashes (see ``ContainmentJob.catalog_key``), so a cached
  verdict for ``Q1 ⊆ Q2`` is served for every pair drawn from the same
  two groups.

Only *containment* consults the catalog: a containment verdict depends
on the OMQs' semantics alone, so substituting an equivalent query cannot
change it.  Rewriting and classification output depends on the *syntax*
of the rule set (two equivalent OMQs can have different rewritings), so
their keys never go through the catalog.

Soundness note: α-equivalent OMQs already share a canonical hash, so the
catalog's edges are between genuinely distinct spellings whose
equivalence was *proven* by the decision procedures.  A procedure may
answer UNKNOWN for one member of a group and CONTAINED for another;
serving the cached UNKNOWN to an equivalent query loses an answer we
might have found, but never reports a wrong verdict.

Persistence is the durable-store contract of :mod:`repro.engine.durable`
(a canon bump invalidates every hash in the file, so it is discarded).
Representatives are chosen deterministically (the lexicographically
least hash in the group), so concurrent sessions converge on the same
reps and their rep-based cache keys agree.
"""

from __future__ import annotations

import sqlite3
from threading import RLock
from typing import Dict, List, Optional, Set, Tuple

from .durable import DurableStore

#: Bump when the catalog's sqlite layout changes.
CATALOG_SCHEMA_VERSION = "1"


class OMQCatalog:
    """Persistent union-find over proven-equivalent canonical OMQ hashes.

    ``path=None`` keeps the catalog in memory (still useful within one
    long-lived engine: groups survive cache eviction).  All operations
    are total — storage failures cost durability, never correctness.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._lock = RLock()
        #: hash -> parent hash (union-find forest, path-compressed).
        self._parent: Dict[str, str] = {}
        #: directed CONTAINED facts between *raw* hashes.
        self._edges: Set[Tuple[str, str]] = set()
        self.merges = 0
        self._db = DurableStore(
            path,
            [
                "CREATE TABLE IF NOT EXISTS members "
                "(hash TEXT PRIMARY KEY, rep TEXT)",
                "CREATE TABLE IF NOT EXISTS edges "
                "(src TEXT, dst TEXT, PRIMARY KEY (src, dst))",
            ],
            CATALOG_SCHEMA_VERSION,
            load=self._load,
        )
        self._condense()

    def _load(self, conn: sqlite3.Connection) -> None:
        for h, rep in conn.execute("SELECT hash, rep FROM members"):
            self._parent[h] = rep
            self._parent.setdefault(rep, rep)
        for src, dst in conn.execute("SELECT src, dst FROM edges"):
            self._edges.add((src, dst))

    # -- union-find -------------------------------------------------------

    def _find(self, h: str) -> str:
        root = h
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        # Path compression keeps repeated rep() lookups O(1) amortized.
        while self._parent.get(h, h) != root:
            self._parent[h], h = root, self._parent[h]
        return root

    def _union(self, a: str, b: str) -> bool:
        """Merge *a*'s and *b*'s groups; returns True iff they differed.

        The surviving representative is the lexicographically least root
        so every session converges on the same rep for the same group.
        """
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return False
        keep, fold = (ra, rb) if ra < rb else (rb, ra)
        self._parent[fold] = keep
        self.merges += 1
        # Rewrite every member of the folded group, then record the
        # folded root itself.
        self._db.write(
            ("UPDATE members SET rep = ? WHERE rep = ?", [(keep, fold)]),
            ("INSERT OR REPLACE INTO members VALUES (?, ?)", [(fold, keep)]),
        )
        return True

    def _condense(self) -> None:
        """Merge every strongly connected component of the rep-level fact
        graph (Tarjan, iterative).  Pairwise ``A⊆B ∧ B⊆A`` cycles are the
        common case, but chains of CONTAINED facts can close longer
        cycles — e.g. ``A⊆B, B⊆C, C⊆A`` proves all three equivalent —
        which only SCC condensation catches."""
        adj: Dict[str, List[str]] = {}
        for src, dst in self._edges:
            rs, rd = self._find(src), self._find(dst)
            if rs != rd:
                adj.setdefault(rs, []).append(rd)
                adj.setdefault(rd, [])
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        counter = [0]

        def strongconnect(start: str) -> None:
            work = [(start, iter(adj.get(start, ())))]
            index[start] = low[start] = counter[0]
            counter[0] += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(adj.get(succ, ()))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    for other in component[1:]:
                        self._union(component[0], other)

        for node in list(adj):
            if node not in index:
                strongconnect(node)

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

    def rep(self, h: str) -> str:
        """The canonical representative of *h*'s equivalence group
        (*h* itself while unmerged)."""
        with self._lock:
            return self._find(h)

    def equivalent(self, h1: str, h2: str) -> bool:
        """Whether *h1* and *h2* are in the same proven-equivalent group."""
        with self._lock:
            return h1 == h2 or self._find(h1) == self._find(h2)

    def note_contained(self, h1: str, h2: str) -> bool:
        """Record the proven fact ``hash h1 ⊆ hash h2``.

        Returns True iff the new edge closed a cycle and merged groups
        (directly, or through a longer chain of recorded facts).
        """
        with self._lock:
            if h1 == h2 or (h1, h2) in self._edges:
                return False
            self._edges.add((h1, h2))
            self._parent.setdefault(h1, h1)
            self._parent.setdefault(h2, h2)
            self._db.write(
                ("INSERT OR IGNORE INTO edges VALUES (?, ?)", [(h1, h2)]),
                (
                    "INSERT OR IGNORE INTO members VALUES (?, ?)",
                    [(h1, self._find(h1)), (h2, self._find(h2))],
                ),
            )
            before = self.merges
            self._condense()
            return self.merges > before

    def note_equivalent(self, h1: str, h2: str) -> bool:
        """Record a proven equivalence (both containment directions)."""
        merged = self.note_contained(h1, h2)
        return self.note_contained(h2, h1) or merged

    def groups(self) -> Dict[str, Tuple[str, ...]]:
        """rep -> sorted members, for every non-singleton group."""
        with self._lock:
            by_rep: Dict[str, List[str]] = {}
            for h in self._parent:
                by_rep.setdefault(self._find(h), []).append(h)
            return {
                rep: tuple(sorted(members))
                for rep, members in sorted(by_rep.items())
                if len(members) > 1
            }

    def stats(self) -> dict:
        with self._lock:
            groups = self.groups()
            return {
                "hashes": len(self._parent),
                "edges": len(self._edges),
                "groups": len(groups),
                "grouped_hashes": sum(len(m) for m in groups.values()),
                "merges": self.merges,
                "persistent": self.persistent,
                "recoveries": self.recoveries,
                "transient_errors": self.transient_errors,
            }

    def clear(self) -> None:
        """Forget every fact (memory and disk)."""
        with self._lock:
            self._parent.clear()
            self._edges.clear()
            self._db.write(
                ("DELETE FROM members", [()]), ("DELETE FROM edges", [()])
            )

    def close(self) -> None:
        with self._lock:
            self._db.close()

    def __enter__(self) -> "OMQCatalog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
