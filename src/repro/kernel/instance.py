"""The kernel's instance representations and their indexes.

Two views back every homomorphism search, both storing facts as
**tuples of interned ints** (see :mod:`repro.kernel.intern`):

* :class:`WorkingInstance` — a *mutable, append-only* instance whose
  per-predicate and (predicate, position, term) indexes are maintained
  incrementally on :meth:`~WorkingInstance.add`.  Atoms carry monotonically
  increasing sequence numbers, which is what makes the delta-driven chase
  possible: "the atoms added since watermark ``m``" is the contiguous
  suffix ``seq >= m``, and every index list is seq-sorted, so restricting a
  search to a watermark (or to a delta window) is a binary search, not a
  filter.
* frozen :class:`~repro.core.instance.Instance` — adapted through
  :class:`_FrozenView`, which interns the instance's memoized sorted
  indexes once and is itself memoized on the instance, so repeated
  searches against the same frozen target share one interned view.

Both expose the small duck-typed interface the search consumes:
``pred_candidates`` / ``pos_candidates`` (windows of int-tuple facts) and
``signature``.  Candidate
order is seq order for a :class:`WorkingInstance` and the instance's
deterministic sorted order for a frozen view — interning never changes
which facts are enumerated or in what order, only how they are stored.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom
from ..core.instance import Instance, _atom_sort_key
from .intern import INTERN

#: A candidate window: (facts, start, end) — iterate facts[start:end]
#: without copying the (potentially large) index list.  Each fact is a
#: tuple of interned term ids.
Window = Tuple[Sequence[Tuple[int, ...]], int, int]

_EMPTY_WINDOW: Window = ((), 0, 0)


def trusted_instance(atoms: Iterable[Atom]) -> Instance:
    """Build a frozen :class:`Instance` from atoms known to be ground.

    ``Instance.__post_init__`` re-validates groundness atom by atom; the
    kernel's structures already guarantee it (``WorkingInstance.add``
    checks on the way in), so snapshots skip the redundant pass.  Never
    hand this non-ground atoms — it would forge an invalid instance.
    """
    inst = object.__new__(Instance)
    object.__setattr__(inst, "atoms", frozenset(atoms))
    return inst


class _IndexList:
    """A seq-sorted candidate list: parallel (seqs, facts) arrays."""

    __slots__ = ("seqs", "facts")

    def __init__(self) -> None:
        self.seqs: List[int] = []
        self.facts: List[Tuple[int, ...]] = []

    def append(self, seq: int, fact: Tuple[int, ...]) -> None:
        self.seqs.append(seq)
        self.facts.append(fact)

    def window(self, lo: int, hi: Optional[int]) -> Window:
        """The sub-window of facts with ``lo <= seq < hi``."""
        start = bisect_left(self.seqs, lo) if lo > 0 else 0
        end = len(self.seqs) if hi is None else bisect_right(self.seqs, hi - 1)
        return (self.facts, start, end)


class WorkingInstance:
    """A mutable, append-only set of ground atoms with live interned indexes.

    Supports exactly what the kernel's consumers need: O(1) amortized
    :meth:`add` with incremental index maintenance,
    watermark/delta windows for semi-naive evaluation, and cheap
    conversion to/from the frozen :class:`Instance`.
    """

    __slots__ = (
        "_seq_of",
        "_atoms",
        "_facts",
        "_by_predicate",
        "_by_position",
        "_snapshot",
        "_snapshot_len",
        "_generation",
    )

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self._seq_of: Dict[Atom, int] = {}
        self._atoms: List[Atom] = []
        self._facts: List[Tuple[int, ...]] = []
        self._by_predicate: Dict[int, _IndexList] = {}
        self._by_position: Dict[Tuple[int, int, int], _IndexList] = {}
        self._snapshot: Optional[Instance] = None
        self._snapshot_len = -1
        self._generation = INTERN.generation
        for a in atoms:
            self.add(a)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_instance(cls, instance: Instance) -> "WorkingInstance":
        """A working copy of a frozen instance (deterministic atom order)."""
        work = cls()
        for a in sorted(instance.atoms, key=_atom_sort_key):
            work._add_trusted(a)
        return work

    # -- mutation --------------------------------------------------------

    def add(self, atom: Atom) -> bool:
        """Add *atom*; returns True iff it was new.  Atoms must be ground."""
        if atom in self._seq_of:
            return False
        if not atom.is_ground():
            raise ValueError(f"working-instance atom contains a variable: {atom}")
        self._add_trusted(atom)
        return True

    def _add_trusted(self, atom: Atom) -> None:
        self._ensure_current()
        seq = len(self._atoms)
        self._seq_of[atom] = seq
        self._atoms.append(atom)
        pid = INTERN.pred_id(atom.predicate)
        fact = INTERN.term_ids(atom.args)
        self._facts.append(fact)
        pred_list = self._by_predicate.get(pid)
        if pred_list is None:
            pred_list = self._by_predicate[pid] = _IndexList()
        pred_list.append(seq, fact)
        for pos, tid in enumerate(fact):
            key = (pid, pos, tid)
            pos_list = self._by_position.get(key)
            if pos_list is None:
                pos_list = self._by_position[key] = _IndexList()
            pos_list.append(seq, fact)
        self._snapshot = None

    def _ensure_current(self) -> None:
        """Rebuild interned state if the intern table was cleared under us."""
        if self._generation == INTERN.generation:
            return
        atoms = self._atoms
        self._seq_of = {}
        self._atoms = []
        self._facts = []
        self._by_predicate = {}
        self._by_position = {}
        self._generation = INTERN.generation
        for a in atoms:
            if a not in self._seq_of:
                self._add_trusted(a)

    # -- windows (the search interface) ----------------------------------

    def pred_candidates(
        self, pid: int, lo: int = 0, hi: Optional[int] = None
    ) -> Window:
        """Facts over predicate id *pid* with seq in ``[lo, hi)``."""
        entry = self._by_predicate.get(pid)
        if entry is None:
            return _EMPTY_WINDOW
        return entry.window(lo, hi)

    def pos_candidates(
        self,
        pid: int,
        position: int,
        tid: int,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> Optional[Window]:
        """Facts with term id *tid* at *position*, seq in ``[lo, hi)``.

        Returns ``None`` (not an empty window) when the key has never been
        indexed — callers treat both as "no candidates", but ``None`` is
        free while a window costs two bisects.
        """
        entry = self._by_position.get((pid, position, tid))
        if entry is None:
            return None
        return entry.window(lo, hi)

    # -- signature -------------------------------------------------------

    def signature(self) -> FrozenSet[Tuple[str, int]]:
        """The set of (predicate, arity) pairs present in the instance.

        Read straight off the interned per-predicate index — no pass over
        the atoms.  This is the keying primitive of the structural
        counterexample index (:mod:`repro.engine.witness_store`): two
        instances can only be related by a schema-respecting
        homomorphism when the source's signature is a subset of the
        target's.
        """
        self._ensure_current()
        return frozenset(
            (INTERN.pred(pid), len(entry.facts[0]))
            for pid, entry in self._by_predicate.items()
            if entry.facts
        )

    # -- watermarks & snapshots ------------------------------------------

    def watermark(self) -> int:
        """The current sequence high-water mark (== ``len(self)``)."""
        return len(self._atoms)

    def atoms_since(self, mark: int) -> List[Atom]:
        """The atoms added at or after *mark*, in insertion order."""
        if mark <= 0:
            return list(self._atoms)
        return self._atoms[mark:]

    def snapshot(self) -> Instance:
        """A frozen :class:`Instance` of the current atoms (memoized)."""
        if self._snapshot is None or self._snapshot_len != len(self._atoms):
            self._snapshot = trusted_instance(self._atoms)
            self._snapshot_len = len(self._atoms)
        return self._snapshot

    # -- dunder ----------------------------------------------------------

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._seq_of

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __repr__(self) -> str:
        return f"WorkingInstance({len(self._atoms)} atoms)"


class _FrozenView:
    """Adapts a frozen :class:`Instance` to the search's window interface.

    Candidate order is the instance's deterministic sorted order (the same
    order the pre-kernel search iterated), so search results and their
    enumeration order are unchanged.  Watermarks/deltas are meaningless on
    an immutable instance; windows always span the full index.

    The view is built once per (instance, intern generation) and memoized
    on the instance itself (see :func:`view_of`), so repeated searches
    against the same target — the common case for query evaluation over a
    chased instance — pay the interning pass exactly once.
    """

    __slots__ = (
        "_by_predicate",
        "_by_position",
        "generation",
    )

    def __init__(self, instance: Instance) -> None:
        self.generation = INTERN.generation
        self._by_predicate: Dict[int, List[Tuple[int, ...]]] = {}
        self._by_position: Dict[Tuple[int, int, int], List[Tuple[int, ...]]] = {}
        by_position = self._by_position
        for predicate, atoms in instance.by_predicate().items():
            pid = INTERN.pred_id(predicate)
            facts = [INTERN.term_ids(a.args) for a in atoms]
            self._by_predicate[pid] = facts
            for fact in facts:
                for pos, tid in enumerate(fact):
                    key = (pid, pos, tid)
                    bucket = by_position.get(key)
                    if bucket is None:
                        by_position[key] = [fact]
                    else:
                        bucket.append(fact)

    def pred_candidates(
        self, pid: int, lo: int = 0, hi: Optional[int] = None
    ) -> Window:
        if lo or hi is not None:
            raise ValueError(
                "sequence windows require a WorkingInstance target"
            )
        facts = self._by_predicate.get(pid)
        if facts is None:
            return _EMPTY_WINDOW
        return (facts, 0, len(facts))

    def pos_candidates(
        self,
        pid: int,
        position: int,
        tid: int,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> Optional[Window]:
        if lo or hi is not None:
            raise ValueError(
                "sequence windows require a WorkingInstance target"
            )
        facts = self._by_position.get((pid, position, tid))
        if facts is None:
            return None
        return (facts, 0, len(facts))

    def signature(self) -> FrozenSet[Tuple[str, int]]:
        """The set of (predicate, arity) pairs present (see
        :meth:`WorkingInstance.signature`)."""
        return frozenset(
            (INTERN.pred(pid), len(facts[0]))
            for pid, facts in self._by_predicate.items()
            if facts
        )


def instance_signature(target) -> FrozenSet[Tuple[str, int]]:
    """The (predicate, arity) signature of *target*, via its interned view.

    Accepts anything :func:`view_of` does — a :class:`WorkingInstance` or
    a frozen :class:`~repro.core.instance.Instance` — and shares the
    memoized view, so asking for the signature of an instance that has
    already been searched is free.
    """
    return view_of(target).signature()


def view_of(target) -> object:
    """The search view of *target* (WorkingInstance or frozen Instance).

    Frozen instances memoize their interned view (keyed by the intern
    generation) the same way they memoize ``by_predicate``; working
    instances are their own view and revalidate their generation inline.
    """
    if isinstance(target, WorkingInstance):
        target._ensure_current()
        return target
    if isinstance(target, Instance):
        view = target.__dict__.get("_kernel_view_memo")
        if view is None or view.generation != INTERN.generation:
            view = _FrozenView(target)
            object.__setattr__(target, "_kernel_view_memo", view)
        return view
    raise TypeError(
        f"hom-search target must be an Instance or WorkingInstance, "
        f"got {type(target).__name__}"
    )
