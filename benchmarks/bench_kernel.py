"""Kernel benchmark: delta vs naive chase, plus the join order's one bad shape.

Canonical-output identity is asserted before any timing is trusted:

* **delta vs naive** — the semi-naive chase over the kernel's
  :class:`~repro.kernel.WorkingInstance` windows against the pre-kernel
  re-enumerating chase, on the largest linear and guarded workloads;
* **skewed join** — a huge binary relation joined with a tiny 4-ary one.
  The kernel's one join order (fewest unbound slots first, ties by atom
  string) starts at the huge relation here and scans it whole; the row
  reports that time, with the matches checked against an independent
  hash join, so the trade-off of having no cost-based planner stays
  visible.  No decision workload has this shape: the decision
  procedures search query-sized targets;
* **repeated batch** — the same OMQ evaluated over the same database
  again and again, as the batch engine does; after the first pass every
  join order must come from the per-body order memo;
* **fragment parity** — delta and naive chase produce step-identical
  runs across every random-OMQ generator fragment.

Run as a script — not through pytest::

    PYTHONPATH=src python benchmarks/bench_kernel.py          # full
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick  # CI smoke

Writes ``BENCH_kernel.json`` (see ``--out``) with per-workload timings,
speedups, step counts, and kernel counter deltas.  ``--trace-out PATH``
re-runs one untimed pass of each chase workload under ``obs`` tracing and
writes the per-phase Chrome trace there (the CI ``perf-profile`` artifact).
Exits non-zero if outputs diverge, the delta-vs-naive speedup falls below
its floor (full mode only: CI boxes are noisy; ratio claims are made by
the full run), or the repeated-batch order-memo hit rate is zero
(enforced in both modes).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402
from repro import obs  # noqa: E402
from repro.chase.engine import chase  # noqa: E402
from repro.core.atoms import atom, fact  # noqa: E402
from repro.core.instance import Instance  # noqa: E402
from repro.core.terms import Variable  # noqa: E402
from repro.engine.canon import hash_instance  # noqa: E402
from repro.evaluation import evaluate_omq  # noqa: E402
from repro.generators.databases import chain_database, random_database  # noqa: E402
from repro.generators.ontologies import (  # noqa: E402
    guarded_reachability,
    linear_chain,
)
from repro.generators.random_omqs import FRAGMENTS, random_omq  # noqa: E402
from repro.kernel import (  # noqa: E402
    KERNEL_METRICS,
    WorkingInstance,
    compiled_search,
    kernel_snapshot,
)
from repro.obs.export import write_chrome_trace  # noqa: E402


def linear_workload(length: int, chain: int):
    """Inclusion chain of *length* hops over a *chain*-edge database."""
    omq = linear_chain(length)
    return f"linear_chain_{length}_db{chain}", chain_database("R_0", chain), omq.sigma


def guarded_workload(chain: int):
    """Guarded reachability seeded at one end of a *chain*-edge path."""
    omq = guarded_reachability()
    atoms = list(chain_database("E", chain).atoms) + [fact("S", "n0")]
    return f"guarded_reach_db{chain}", Instance.of(atoms), omq.sigma


def skewed_instance(n_big: int, n_wide: int) -> WorkingInstance:
    """Huge binary × tiny 4-ary relation: the join order's worst shape.

    ``Big`` has *n_big* facts whose second column is low-cardinality;
    ``Wide`` has *n_wide* facts sharing ``Big``'s join column.  Fewest
    unbound slots first starts at ``Big`` and scans it whole; starting at
    ``Wide`` would drive the join through the positional index.
    """
    atoms = [fact("Big", f"a{i}", f"b{i % 5}") for i in range(n_big)]
    atoms += [
        fact("Wide", f"a{i * (n_big // max(n_wide, 1))}", f"p{i}", f"q{i}", f"r{i}")
        for i in range(n_wide)
    ]
    return WorkingInstance(atoms)


SKEWED_BODY = (
    atom("Big", Variable("x"), Variable("y")),
    atom(
        "Wide", Variable("x"), Variable("w1"), Variable("w2"), Variable("w3")
    ),
)


def time_chase(db, sigma, strategy: str, repeats: int):
    """Best-of-*repeats* wall time plus the (identical) chase result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = chase(db, sigma, strategy=strategy, max_steps=1_000_000)
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_chase_workload(name, db, sigma, repeats: int):
    """Delta-vs-naive timings for one chase workload."""
    naive_s, naive = time_chase(db, sigma, "naive", repeats)
    KERNEL_METRICS.reset()
    delta_s, delta = time_chase(db, sigma, "delta", repeats)
    counters = kernel_snapshot()
    naive_hash = hash_instance(naive.instance)
    delta_hash = hash_instance(delta.instance)
    return {
        "workload": name,
        "db_atoms": len(db.atoms),
        "chase_atoms": len(delta.instance.atoms),
        "steps": delta.steps,
        "naive_s": round(naive_s, 6),
        "delta_s": round(delta_s, 6),
        "speedup": round(naive_s / delta_s, 2) if delta_s else float("inf"),
        "outputs_identical": naive_hash == delta_hash
        and naive.instance == delta.instance
        and naive.steps == delta.steps,
        "instance_hash": delta_hash,
        "kernel_counters": {
            k: v for k, v in counters.items() if isinstance(v, int)
        },
    }


def _render(hit) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in hit.items()))


def run_skewed_workload(n_big: int, n_wide: int, repeats: int):
    """Full join enumeration over the skewed family, checked by a hash join."""
    work = skewed_instance(n_big, n_wide)
    search = compiled_search(SKEWED_BODY)
    best = float("inf")
    hits = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        hits = sorted(_render(h) for h in search.search(work))
        best = min(best, time.perf_counter() - t0)
    big_by_x = {}
    for a in work:
        if a.predicate == "Big":
            big_by_x.setdefault(a.args[0], []).append(a.args[1])
    x, y, w1, w2, w3 = (Variable(n) for n in ("x", "y", "w1", "w2", "w3"))
    expected = sorted(
        _render({x: a.args[0], y: b, w1: a.args[1], w2: a.args[2], w3: a.args[3]})
        for a in work
        if a.predicate == "Wide"
        for b in big_by_x.get(a.args[0], ())
    )
    return {
        "workload": f"skewed_join_big{n_big}_wide{n_wide}",
        "db_atoms": len(work),
        "matches": len(hits),
        "join_s": round(best, 6),
        "output_correct": hits == expected,
    }


def run_repeated_batch(repeats: int):
    """The order-memo scenario: one OMQ evaluated over one database N times.

    This is the batch engine's steady state — same bodies — so after the
    first evaluation every join order must come from the order memo.
    """
    rng = random.Random(20_18)
    omq = random_omq("linear", rng, n_rules=4, n_query_atoms=3)
    db = random_database(omq.data_schema, 8, 30, seed=4)
    repro.clear_caches()
    answers = None
    for _ in range(repeats):
        got = evaluate_omq(omq, db).answers
        assert answers is None or got == answers
        answers = got
    snap = KERNEL_METRICS.snapshot()
    hits = snap.get("kernel.plan.hits", 0)
    misses = snap.get("kernel.plan.misses", 0)
    return {
        "workload": f"repeated_batch_x{repeats}",
        "plan_hits": hits,
        "plan_misses": misses,
        "plan_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses
        else 0.0,
    }


def run_fragment_parity(trials: int):
    """Step-identical delta-vs-naive chase across every generator family."""
    rows = []
    for fragment in FRAGMENTS:
        rng = random.Random(sum(map(ord, fragment)))
        identical = True
        for trial in range(trials):
            omq = random_omq(fragment, rng)
            db = random_database(omq.data_schema, 5, 12, seed=trial)
            repro.clear_caches()
            delta = chase(db, omq.sigma, strategy="delta", max_steps=20_000)
            naive = chase(db, omq.sigma, strategy="naive", max_steps=20_000)
            identical = (
                identical
                and delta.steps == naive.steps
                and delta.log == naive.log
                and delta.instance == naive.instance
            )
        rows.append(
            {"fragment": fragment, "trials": trials, "step_identical": identical}
        )
    return rows


def write_trace(workloads, path: str) -> None:
    """One untimed traced pass per chase workload → Chrome trace JSON."""
    obs.drain()
    with obs.tracing("always"):
        for name, db, sigma in workloads:
            with obs.span("bench.workload", workload=name):
                chase(db, sigma, strategy="delta", max_steps=1_000_000)
    write_chrome_trace(obs.drain(), path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workloads, one repeat, no speedup floors (CI smoke)",
    )
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_kernel.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=3.0,
        help="fail below this delta-vs-naive ratio (full mode only)",
    )
    parser.add_argument(
        "--trace-out", default=None,
        help="also write a Chrome trace of one traced pass per workload",
    )
    args = parser.parse_args(argv)

    if args.quick:
        workloads = [
            linear_workload(8, 20),
            guarded_workload(60),
        ]
        skewed = (4_000, 6)
        repeats, floor = 1, 1.0
        batch_repeats, parity_trials = 4, 1
    else:
        workloads = [
            linear_workload(16, 40),
            guarded_workload(150),
        ]
        skewed = (40_000, 8)
        repeats, floor = 3, args.min_speedup
        batch_repeats, parity_trials = 6, 3

    rows = [run_chase_workload(*w, repeats=repeats) for w in workloads]
    skewed_row = run_skewed_workload(*skewed, repeats=repeats)
    batch_row = run_repeated_batch(batch_repeats)
    parity_rows = run_fragment_parity(parity_trials)
    report = {
        "benchmark": "bench_kernel",
        "mode": "quick" if args.quick else "full",
        "repeats": repeats,
        "min_speedup": floor,
        "workloads": rows,
        "skewed": skewed_row,
        "repeated_batch": batch_row,
        "fragment_parity": parity_rows,
    }
    Path(args.out).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    ok = True
    for row in rows:
        status = "ok"
        if not row["outputs_identical"]:
            status, ok = "OUTPUT MISMATCH", False
        elif row["speedup"] < floor:
            status, ok = f"speedup < {floor}", False
        print(
            f"{row['workload']:>28}: naive {row['naive_s']*1000:8.1f} ms  "
            f"delta {row['delta_s']*1000:7.1f} ms  "
            f"speedup {row['speedup']:6.1f}x  [{status}]"
        )

    status = "ok"
    if not skewed_row["output_correct"]:
        status, ok = "OUTPUT MISMATCH", False
    print(
        f"{skewed_row['workload']:>28}: join {skewed_row['join_s']*1000:8.1f} ms  "
        f"matches {skewed_row['matches']:5d}  [{status}]"
    )

    status = "ok"
    if batch_row["plan_hit_rate"] <= 0.0:
        # Enforced in every mode: this is the CI perf-profile guard.
        status, ok = "order memo never hit", False
    print(
        f"{batch_row['workload']:>28}: hits {batch_row['plan_hits']:5d}  "
        f"misses {batch_row['plan_misses']:5d}  "
        f"hit rate {batch_row['plan_hit_rate']:.2%}  [{status}]"
    )

    for row in parity_rows:
        status = "ok" if row["step_identical"] else "PARITY MISMATCH"
        ok = ok and row["step_identical"]
        print(
            f"{'parity ' + row['fragment']:>28}: {row['trials']} trial(s)  [{status}]"
        )

    if args.trace_out:
        write_trace(workloads, args.trace_out)
        print(f"chrome trace written to {args.trace_out}")
    print(f"report written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
