"""The benchmark's inputs: every question a workload poses, built from the seed.

A *question* is one containment decision ``Q1 ⊆ Q2`` plus what is known
about it by construction.  Three sources feed the workloads:

* the **pool** — per fragment of :data:`repro.generators.FRAGMENTS`, the
  first 200 draws of ``random_omq_pair(fragment, Random(7),
  mode=rng.choice(POOL_MODES))``.  This is the stream the known tails were
  found in (guarded draws 9, 39 and 49 run past 60 s, 136 for 6-21 s,
  and draw 123 returns UNKNOWN after 1.1-3 s; every other draw finishes
  within 0.6 s).  The pool is fixed, so that the deadline can sit far from every
  natural runtime and every tail stays in.  Fresh per-seed guarded draws
  were measured instead: their runtimes spread continuously from 0.3 s
  to over a minute with 6-15 tails per 240 draws, so no deadline is far
  from all of them, and the tail count alone moved every end-to-end
  metric by more than any usable bound.
* the **families** — the paper's parameterized OMQs posed against an
  α-renamed copy of themselves, plus Prop 18's family against an
  unsatisfiable right-hand side.
* the **repeat stream** for the engine and its serve phase — a fixed
  part of the pool in a fixed order, with ~80% respellings of earlier
  questions.

The seed orders the questions and re-spells the cheap ones (α-renaming,
``perturb_pair``'s ``variable_rename`` kind, which also shuffles rule and
atom order).  Questions that can land in a p99 keep one spelling for
every seed: a respelling moves a single runtime by up to 25%, and p99 sits
where the runtime distribution is sparse, so seeded spellings there moved
p99 by 20% from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.atoms import Atom
from repro.core.omq import OMQ
from repro.core.parser import parse_tgds, parse_cq
from repro.core.queries import CQ
from repro.core.schema import Schema
from repro.core.terms import Variable
from repro.generators import ontologies
from repro.generators.random_omqs import (
    FRAGMENTS,
    alpha_rename,
    perturb_pair,
    random_omq_pair,
)
from repro.reductions.lower_bounds import expected_witness_size, prop18_family

POOL_SEED = 7
POOL_DRAWS = 200
POOL_MODES = ("independent", "specialized", "alpha")

#: Pool draws of the guarded stream whose natural runtime is far above
#: every deadline (draw 9 ran past 90 s, 39 and 49 past 60 s, 136 6-21 s).
GUARDED_TAILS = (9, 39, 49, 136)
#: The guarded draw that returns an honest UNKNOWN after 1.1-3 s.
GUARDED_SLOW_UNKNOWN = 123


@dataclass
class Question:
    """One decision the benchmark poses, with its provenance."""

    q1: OMQ
    q2: OMQ
    #: What is known by construction: ``"contained"``, ``"not_contained"``
    #: or ``None``.
    expected: Optional[str]
    #: Where it came from, e.g. ``pool/guarded/9`` or ``family/prop18_family/5``.
    origin: str
    #: For a respelling, the index of the question it re-spells.
    base: Optional[int] = None
    #: Minimum witness size a NOT_CONTAINED answer must have (Prop 18).
    min_witness: int = 0
    tags: Tuple[str, ...] = field(default_factory=tuple)


def _expected(mode_expected: Optional[str]) -> Optional[str]:
    # random_omq_pair labels α-pairs "equivalent", which implies Q1 ⊆ Q2.
    return "contained" if mode_expected in ("contained", "equivalent") else None


def build_pool() -> List[Question]:
    """The fixed 5 × 200-draw pool (seed-independent content)."""
    pool: List[Question] = []
    for fragment in FRAGMENTS:
        rng = random.Random(POOL_SEED)
        for index in range(POOL_DRAWS):
            mode = rng.choice(POOL_MODES)
            q1, q2, expected = random_omq_pair(fragment, rng, mode=mode)
            tags = [fragment, mode]
            if fragment == "guarded" and index in GUARDED_TAILS:
                tags.append("tail")
            if fragment == "guarded" and index == GUARDED_SLOW_UNKNOWN:
                tags.append("slow_unknown")
            pool.append(
                Question(
                    q1, q2, _expected(expected),
                    f"pool/{fragment}/{index}", tags=tuple(tags),
                )
            )
    return pool


def respell(question: Question, rng: random.Random, base: Optional[int] = None,
            kind: str = "variable_rename") -> Question:
    """A verdict-preserving respelling (``perturb_pair`` kinds)."""
    if kind == "variable_rename":
        q1, q2 = alpha_rename(question.q1, rng), alpha_rename(question.q2, rng)
    else:
        q1, q2 = perturb_pair(question.q1, question.q2, rng, kind).pair
    return Question(
        q1, q2, question.expected, question.origin, base,
        question.min_witness, question.tags + (kind,),
    )


def fresh_corpus(seed: int) -> Tuple[List[Question], List[Question]]:
    """The whole pool: (the questions ordered by *seed*, the guarded tails).

    Every decision is cold, so the order only decides which child process
    runs what; the spelling is fixed (see the module docstring).  The
    slow UNKNOWN comes first: it is decided alone, before the tails (see
    ``workloads._run_cold``).
    """
    questions = build_pool()
    random.Random(f"fresh_corpus:{seed}").shuffle(questions)
    once = [q for q in questions if "slow_unknown" in q.tags]
    once += sorted((q for q in questions if "tail" in q.tags), key=lambda q: q.origin)
    return [q for q in questions if not {"tail", "slow_unknown"} & set(q.tags)], once


# -- the paper's families -----------------------------------------------------

FIGURE1_STICKY = """
T(x, y, z) -> S(y, w)
R(x, y), P(y, z) -> T(x, y, w)
"""
FIGURE1_NON_STICKY = """
T(x, y, z) -> S(x, w)
R(x, y), P(y, z) -> T(x, y, w)
"""


def _figure1(rules: str, name: str) -> OMQ:
    return OMQ(
        Schema.of(R=2, P=2),
        tuple(parse_tgds(rules)),
        parse_cq("q(x, y) :- T(x, y, z), S(y, w)"),
        name,
    )


def _unsatisfiable(omq: OMQ) -> OMQ:
    x = Variable("x")
    return OMQ(omq.data_schema, (), CQ((), (Atom("Nope", (x,)),), "never"), "Q_unsat")


#: (family, builder, {size: copies per run}).  Sizes that decide in
#: under ~16 ms are posed CHEAP times a pass (so a pass holds ≥1000
#: decisions and p99 has ten samples beyond it), the 20-130 ms ones MEDIUM
#: times, and the 0.4-10 s instances, where rewriting size dominates, once
#: per run.
CHEAP, MEDIUM, ONCE = 41, 4, 1
FAMILIES = (
    ("non_recursive_doubling", ontologies.non_recursive_doubling, {1: CHEAP, 2: CHEAP, 3: MEDIUM, 4: ONCE}),
    ("prop18_family", prop18_family, {2: CHEAP, 3: CHEAP, 4: MEDIUM, 5: ONCE}),
    ("linear_witness_family", ontologies.linear_witness_family, {2: CHEAP, 3: CHEAP, 4: MEDIUM, 5: ONCE}),
    ("linear_chain", ontologies.linear_chain, {2: CHEAP, 4: CHEAP, 8: CHEAP, 16: MEDIUM, 32: MEDIUM}),
    ("sticky_recursive_family", ontologies.sticky_recursive_family, {1: CHEAP, 2: MEDIUM, 3: ONCE}),
    ("sticky_arity_family", ontologies.sticky_arity_family, {n: CHEAP for n in range(2, 7)}),
    ("guarded_acyclic", ontologies.guarded_acyclic, {n: CHEAP for n in range(1, 6)}),
    ("guarded_reachability", ontologies.guarded_reachability, {1: ONCE}),
    ("figure1_sticky", lambda _n: _figure1(FIGURE1_STICKY, "fig1_sticky"), {1: CHEAP}),
    ("figure1_non_sticky", lambda _n: _figure1(FIGURE1_NON_STICKY, "fig1_non_sticky"), {1: CHEAP}),
)
#: Prop 18 against an unsatisfiable RHS: NOT_CONTAINED with a 2^(n-2) witness.
PROP18_UNSAT = {2: CHEAP, 3: CHEAP, 4: MEDIUM}
#: The first infeasible size of an exponential family: posed once per run
#: beside the ONCE sizes, it runs into the deadline every time (its natural runtime is
#: past 90 s), keeping the rewriting blow-up in ``failed_share``.
INFEASIBLE = ("prop18_family", 6)


def paper_families(seed: int) -> Tuple[List[Question], List[Question]]:
    """The families: (the seeded stream of cheap and medium sizes, the
    infeasible probe followed by the once-per-run sizes)."""
    rng = random.Random(f"paper_families:{seed}")
    questions: List[Question] = []
    once: List[Question] = []
    for name, build, sizes in FAMILIES:
        for size, copies in sizes.items():
            omq = build(size)
            # p99 lands on the medium sizes; the ONCE sizes sit above it.
            spell = rng if copies == CHEAP else random.Random(f"{name}:{size}")
            for _ in range(copies):
                question = Question(
                    alpha_rename(omq, spell), alpha_rename(omq, spell), "contained",
                    f"family/{name}/{size}", tags=(name, "once") if copies == ONCE else (name,),
                )
                (once if copies == ONCE else questions).append(question)
    for n, copies in PROP18_UNSAT.items():
        omq = prop18_family(n)
        spell = rng if copies == CHEAP else random.Random(f"prop18_vs_unsat:{n}")
        for _ in range(copies):
            questions.append(
                Question(
                    alpha_rename(omq, spell), _unsatisfiable(omq), "not_contained",
                    f"family/prop18_vs_unsat/{n}",
                    min_witness=expected_witness_size(n), tags=("prop18_vs_unsat",),
                )
            )
    rng.shuffle(questions)
    name, size = INFEASIBLE
    omq = prop18_family(size)
    spell = random.Random(f"{name}:{size}")
    probe = Question(
        alpha_rename(omq, spell), alpha_rename(omq, spell), "contained",
        f"family/{name}/{size}", tags=(name, "infeasible"),
    )
    return questions, [probe] + once


# -- the repeat stream (engine_repeat and its traced serve phase) --------------

NEW_PER_FRAGMENT = 40
REPEAT_SHARE = 0.8
#: ``variable_rename`` (α-renaming, which also shuffles rule and atom
#: order, so it subsumes ``atom_reorder``) and ``redundant_atom``.
RESPELL_KINDS = ("variable_rename", "redundant_atom")
#: A redundant query atom turns some sub-second guarded decisions into
#: multi-second ones: over two such respellings of each of the 235
#: non-tail guarded pool draws, 5 missed a 3 s deadline and 8 more took
#: 0.5-2.3 s (none of the other fragments' 1920 went past 0.3 s).  Guarded
#: bases are therefore re-spelled only hash-preservingly; that tail is
#: left to fresh_corpus-style decisions, not to the engine tiers.
GUARDED_RESPELL_KINDS = ("variable_rename",)
#: The slow UNKNOWN is posed twice, α-respelled, at these fractions of the
#: stream: the first outlives the 1.0 s request deadline (a miss), the
#: second comes 4-5 s later, after the first's computation (1.4-3 s in a
#: pool worker) has finished, and gets its cached answer, an honest
#: UNKNOWN.
PROBES_AT = (0.02, 0.75)


@dataclass
class RepeatStream:
    """The engine/serve question stream and the base questions it re-spells."""

    questions: List[Question]
    bases: List[Question]


def repeat_stream(seed: int) -> RepeatStream:
    """~20% new pool questions, ~80% respellings of earlier ones, plus probes.

    The stream's structure is fixed and the seed α-renames the repeats
    that keep their base's canonical hash.  New questions, probes and
    ``redundant_atom`` repeats are decided afresh and can land at p99, so
    they keep one spelling: seeding them too gave a p99 spread of 0.17
    over 5 seeds, against 0.09 without.  With seeded structure, which
    bases were repeated how often and how moved decisions_per_s and p99
    by 10-25% from seed to seed.
    The new questions are the first :data:`NEW_PER_FRAGMENT` pool draws of each
    fragment that are neither tails nor the slow UNKNOWN; each repeat
    re-spells a uniformly chosen earlier base with one
    verdict-preserving ``perturb_pair`` kind: ``variable_rename`` keeps
    the canonical hash (cache, exact witness replay), ``redundant_atom``
    moves it but keeps the predicate signature
    (structural witness replay, or a fresh decision; not for guarded
    bases, see :data:`GUARDED_RESPELL_KINDS`).
    """
    rng = random.Random("repeat_stream")
    pool = build_pool()
    bases: List[Question] = []
    for fragment in FRAGMENTS:
        eligible = [
            q for q in pool
            if q.origin.startswith(f"pool/{fragment}/")
            and not {"tail", "slow_unknown"} & set(q.tags)
        ]
        bases.extend(eligible[:NEW_PER_FRAGMENT])
    rng.shuffle(bases)
    bases = [respell(q, rng) for q in bases]
    total = round(len(bases) / (1 - REPEAT_SHARE))
    questions: List[Question] = []
    introduced = 0
    for position in range(total):
        remaining_new = len(bases) - introduced
        remaining = total - position
        if introduced == 0 or rng.random() < remaining_new / remaining:
            q = bases[introduced]
            questions.append(
                Question(q.q1, q.q2, q.expected, q.origin, introduced, tags=q.tags + ("new",))
            )
            introduced += 1
        else:
            base = rng.randrange(introduced)
            kinds = GUARDED_RESPELL_KINDS if "guarded" in bases[base].tags else RESPELL_KINDS
            questions.append(respell(bases[base], rng, base, rng.choice(kinds)))
    slow_unknown = next(q for q in pool if "slow_unknown" in q.tags)
    for fraction in PROBES_AT:
        probe = respell(slow_unknown, rng)
        probe.tags += ("probe",)
        questions.insert(int(fraction * total), probe)
    spelling = random.Random(f"repeat_stream:{seed}")
    return RepeatStream(
        [respell(q, spelling, q.base) if q.tags[-1] == "variable_rename" else q
         for q in questions],
        bases,
    )
