"""Verdict checks made outside the decision path.

* Every NOT_CONTAINED witness is re-verified: ``c̄ ∈ Q1(D)`` and, by an
  exact evaluation, ``c̄ ∉ Q2(D)``; a Prop 18 witness must also have the
  family's ``2^(n-2)`` atoms.
* Answers known by construction must not be contradicted: specialized and
  α pairs and the families against their α-copies are contained, Prop 18
  against an unsatisfiable RHS is not.
* On the engine and serve workloads, each verdict must agree with bare
  ``contains()`` on the base question it re-spells.

UNKNOWN never contradicts anything: it is an honest answer.
"""

from __future__ import annotations

from typing import Optional

import repro
from repro.containment.result import Verdict
from repro.evaluation import evaluate_omq

_OPPOSITE = {"contained": Verdict.NOT_CONTAINED, "not_contained": Verdict.CONTAINED}


def witness_problem(q1, q2, result, min_size: int = 0) -> Optional[str]:
    """Why a NOT_CONTAINED *result* is not backed by its witness, or None."""
    witness = result.witness
    if witness is None:
        return "NOT_CONTAINED without a witness"
    answer = tuple(witness.answer)
    if len(witness.database) < min_size:
        return f"witness has {len(witness.database)} atoms, fewer than {min_size}"
    if answer not in evaluate_omq(q1, witness.database).answers:
        return "witness answer is not in Q1(D)"
    right = evaluate_omq(q2, witness.database)
    if not right.exact:
        return "Q2(D) cannot be evaluated exactly on the witness"
    if answer in right.answers:
        return "witness answer is in Q2(D)"
    return None


def verdict_problem(question, result, reference: Optional[Verdict] = None) -> Optional[str]:
    """Why *result* is wrong for *question*, or None if nothing contradicts it."""
    verdict = result.verdict
    if verdict is Verdict.UNKNOWN:
        return None
    if question.expected and verdict is _OPPOSITE[question.expected]:
        return f"{verdict} contradicts the known answer ({question.expected})"
    if reference is not None and reference is not Verdict.UNKNOWN and verdict is not reference:
        return f"{verdict} but bare contains() says {reference}"
    if verdict is Verdict.NOT_CONTAINED:
        try:
            return witness_problem(question.q1, question.q2, result, question.min_witness)
        finally:
            repro.clear_caches()
    return None
