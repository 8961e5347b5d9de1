"""The decision benchmark: one containment decision is the unit of work.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 decisionbench/run.py --workload fresh_corpus --seed 7 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists):

* ``fresh_corpus``   cold ``repro.contains`` over 1000 random pairs;
* ``paper_families`` the paper's families against α-copies;
* ``engine_repeat``  ``BatchEngine.submit`` on a stream of ~80% repeats
  (its traced run also measures the serve layer, ``repro serve`` over
  HTTP under an open-loop sender).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The report goes to stdout; its last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any verdict
check failure makes the command exit 1 after printing it.

``--only N`` re-decides question N of the workload's inputs for that seed
alone, through the same entry point and deadline (bare ``repro.contains``,
or a fresh engine on ``engine_repeat``): the report names the command for
each run's slowest decisions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("fresh_corpus", "paper_families", "engine_repeat")

#: End-to-end metrics: name -> unit.  latency_p90_ms is printed too but
#: not bounded: every workload has ≥1000 decisions, so p99 is the highest
#: percentile with ten samples beyond it, and p90 only added another
#: latency that slow machine periods swing.
METRICS = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "failed_share": "ratio",
    "unknown_share": "ratio",
    "peak_rss_mb": "MB",
}


def _cpu_ticks() -> list:
    """The machine's CPU time counters (Linux ``/proc/stat``), or []."""
    try:
        with open("/proc/stat") as stat:
            return [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal_pct(before: list, after: list) -> float:
    """The share of CPU time the hypervisor took between two readings: a
    slow run with high steal was slowed by the host, not the program."""
    if len(before) < 8 or len(after) < 8:
        return float("nan")
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total else 0.0


def _machine() -> dict:
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": os.cpu_count(), "usable_cores": usable, "python": platform.python_version()}


def _run(workload: str, seed: int, seconds: float, trace: bool):
    from decisionbench import workloads

    if workload == "fresh_corpus":
        return workloads.run_fresh_corpus(seed, seconds, trace)
    if workload == "paper_families":
        return workloads.run_paper_families(seed, seconds, trace)
    return workloads.run_engine_repeat(seed, seconds, trace, ROOT)


def _inputs(workload: str, seed: int) -> list:
    from decisionbench import corpus

    if workload == "engine_repeat":
        return corpus.repeat_stream(seed).questions
    questions, once = (corpus.fresh_corpus if workload == "fresh_corpus"
                       else corpus.paper_families)(seed)
    return questions + once


def _rerun_one(workload: str, seed: int, index: int) -> int:
    import shutil

    from decisionbench import workloads
    from decisionbench.decider import Decider

    question = _inputs(workload, seed)[index]
    if workload == "engine_repeat":
        directory = workloads.scratch_dir(ROOT)
        engine = workloads.open_engine(directory)
        try:
            [(_, result, latency)] = workloads.run_stream(engine, [question])
        finally:
            engine.close()
            shutil.rmtree(directory, ignore_errors=True)
        verdict = ("deadline miss" if workloads.is_miss(result.error)
                   else result.error or str(result.value))
    else:
        deadline = (workloads.FAMILY_DEADLINE_S if workload == "paper_families"
                    else workloads.POOL_DEADLINE_S)
        with Decider(deadline) as decider:
            outcome = decider.decide(question.q1, question.q2)
        latency = outcome.latency_s
        verdict = "deadline miss" if outcome.missed else (
            outcome.error or str(outcome.result))
    print(f"{workload} seed={seed} question {index} ({question.origin}): "
          f"{latency * 1000:.1f} ms, {verdict}")
    return 0


def _report(args, run, metrics: dict, layer: dict, steal_pct: float) -> None:
    from decisionbench import layers, workloads

    records = run.records + run.once
    machine = _machine()
    print(f"# decisionbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine: nproc={machine['nproc']} usable_cores={machine['usable_cores']} "
          f"python={machine['python']} cpu_steal_during_run={steal_pct:.1f}%")
    if machine["usable_cores"] < 2 and args.workload != "fresh_corpus":
        print("# this workload runs two processes at once; with fewer than 2 usable "
              "cores their overlap is not measurable here")
    print(f"# passes: {len(run.walls)}; each end-to-end metric but setup_s and "
          f"peak_rss_mb is the median over passes")
    for number, values in enumerate(workloads.pass_metrics(run)):
        print(f"# pass {number}: " + ", ".join(f"{name} {value:.4g}"
                                                for name, value in values.items()))
    if run.once:
        print(f"# once per run: {len(run.once)} decisions, counted in every pass's "
              f"percentiles and shares but not in decisions_per_s: " + ", ".join(
                  f"{r.origin} {r.latency_s:.2f} s" for r in run.once))
    missed = sum(1 for r in records if r.missed)
    wrong = [r for r in records if r.wrong]
    print(f"# decisions: {len(records)} attempted (latency sample count), "
          f"{missed} deadline misses, {sum(1 for r in records if r.error)} errors, "
          f"{len(wrong)} wrong verdicts, timed wall {sum(run.walls):.3f} s")
    for note in run.notes:
        print(f"# {note}")
    for r in wrong[:20]:
        print(f"# WRONG: {r.origin} (seed {r.seed}, question {r.position}): {r.wrong}")
    for problem in run.problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    slowest = sorted(records, key=lambda r: -r.latency_s)[:3]
    for r in slowest:
        state = "deadline miss" if r.missed else (r.verdict or "error")
        print(f"# slow: {r.origin} {r.latency_s * 1000:.1f} ms ({state}); rerun alone: "
              f"python3 decisionbench/run.py --workload {args.workload} --seed {r.seed} "
              f"--only {r.position}")
    if args.trace:
        print(f"# {'per-layer metric':<46} {'value':>14}  unit   (prediction)")
        for name, value in layer.items():
            unit, moves, on = layers.PER_LAYER[name]
            print(f"  {name:<46} {value:>14.6g}  {unit:<6} moves {moves}; on {on}")
        print("# wrapper fires: " + ", ".join(
            f"{site}={count}" for site, count in layers.fired(run.layers).items()))
        absent = [n for n, v in layer.items() if v == 0 and n != "obs.traced_overhead_pct"]
        if absent:
            print(f"# zero here (not exercised by {args.workload}, or its layer runs in "
                  f"pool workers the wrappers do not reach): {', '.join(absent)}")
    else:
        print(f"# {'end-to-end metric':<18} {'value':>14}  unit")
        for name, value in metrics.items():
            unit = METRICS.get(name, "ms (reported, not bounded)")
            print(f"  {name:<18} {value:>14.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--only", type=int, default=None, metavar="N")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"decisionbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    # A terminated run unwinds like a failed one, so that every process
    # it started is stopped and waited for.
    signal.signal(signal.SIGTERM, _terminate)
    from decisionbench.decider import stop_helpers

    try:
        if args.only is not None:
            return _rerun_one(args.workload, args.seed, args.only)
        return _measure(args)
    finally:
        stop_helpers()


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def _measure(args) -> int:
    from decisionbench import layers, workloads

    ticks = _cpu_ticks()
    run = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    steal_pct = _steal_pct(ticks, _cpu_ticks())
    metrics = workloads.end_to_end(run)
    layer = {}
    if args.trace:
        decision_s = sum(r.latency_s for r in run.records + run.once if not r.missed)
        layer = layers.layer_metrics(run.layers, decision_s)
        layer.update(run.layer_extra)
        run.problems.extend(f"wrapper never fired: {site}"
                            for site in layers.missing(run.layers, args.workload))
    _report(args, run, metrics, layer, steal_pct)
    records = run.records + run.once
    wrong = sum(1 for r in records if r.wrong)
    # Deadline misses of the known tails are measured outcomes (they are in
    # failed_share); "failed" counts decisions that errored or were wrong.
    failed = sum(1 for r in records if r.error or r.wrong)
    chosen = layer if args.trace else metrics
    units = {n: u for n, (u, _, _) in layers.PER_LAYER.items()} if args.trace else METRICS
    print(json.dumps({
        "correct": wrong == 0 and not run.problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in chosen.items() if n in units},
    }))
    return 1 if wrong or run.problems else 0


if __name__ == "__main__":
    sys.exit(main())
