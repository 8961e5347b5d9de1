"""The workloads: inputs, the timed loop, the checks and the metrics.

A run first decides its once-per-run questions: the known tails and the
1-10 s instances, whose runtimes are a deadline or seconds each.  Then it
decides whole passes over the rest until ``--seconds`` have elapsed and
at least :data:`MIN_PASSES` are done, each pass a fresh respelling, so
every pass carries the same work and the metrics compare across
programs of any speed.  Each end-to-end metric but ``setup_s`` and
``peak_rss_mb`` is the median over the run's passes; a pass's
percentiles and shares count the once-per-run decisions too, its rate
does not.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro

from . import checks, corpus, layers
from .decider import Decider, Outcome, peak_rss_kb

#: Per-decision deadline of fresh_corpus.  Pool decisions finish within
#: 0.6 s or run for 6 s to minutes, except guarded draw 123, which
#: answers UNKNOWN after 1.1-3 s.  The machine these were measured on
#: ran them 2-3.5 times faster in its quiet periods than in its busy
#: ones (draw 136 took 6.1 s in the former and 21 s in the latter), so
#: 4.5 s sits a factor of 1.35-1.5 from both at their closest.
POOL_DEADLINE_S = 4.5
#: The engine pool's ``task_timeout``: past every engine question's
#: runtime, since a task timeout shuts ``repro serve`` down (README.md).
TASK_TIMEOUT_S = 6.0
#: Per-decision deadline of paper_families: twice its slowest feasible
#: instance (non_recursive_doubling(4), ~10 s) and under a quarter of the
#: infeasible probe's natural runtime (prop18_family(6), past 90 s).
FAMILY_DEADLINE_S = 20.0
#: The deadline each engine and serve request carries (the scheduler's
#: ``deadline``): in a pool worker their questions finish within 0.45 s
#: in quiet periods, except the slow-UNKNOWN probe (1.4 s there, 2.5-3 s
#: in busy ones).  1.0 s leaves a factor of 2.2 for a busy period to slow
#: the former, and a factor of 1.4 for the latter to run faster than the
#: machine's quietest.
REQUEST_DEADLINE_S = 1.0
#: Set-ups per run of a cold workload; setup_s is their median (a set-up
#: spawns four processes on two cores; with three, two sets of 10 runs
#: had spreads up to 0.14 and medians 15% apart).
SETUP_REPEATS = 5
#: Every run reports the median of at least this many passes: a single
#: pass moved p99 by up to 45% when the machine's hypervisor stole CPU
#: during it.
MIN_PASSES = 3
#: In a traced run, every OVERHEAD_STRIDE-th question of a pass is also
#: decided untraced, right before its traced decision, to price the
#: tracing.
OVERHEAD_STRIDE = 8


@dataclass
class Record:
    """One attempted decision."""

    seed: int
    position: int
    origin: str
    latency_s: float
    verdict: Optional[str] = None
    missed: bool = False
    error: Optional[str] = None
    wrong: Optional[str] = None


@dataclass
class RunResult:
    #: The passes' decisions, in pass order.
    records: List[Record]
    #: Timed wall seconds of each pass.
    walls: List[float]
    setup_s: float
    peak_rss_mb: float
    #: The once-per-run decisions, counted in every pass's percentiles and shares.
    once: List[Record] = field(default_factory=list)
    layers: Optional[dict] = None
    notes: List[str] = field(default_factory=list)
    #: Check failures outside the records (served verdicts, silent wrappers).
    problems: List[str] = field(default_factory=list)
    #: Per-layer metrics the workload computes itself (engine tiers, serve).
    layer_extra: Dict[str, float] = field(default_factory=dict)


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), *q* in [0, 100]."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def _pass_metrics(records: List[Record], once: List[Record], wall_s: float) -> Dict[str, float]:
    completed = sum(1 for r in records if not r.missed and r.error is None)
    records = records + once
    attempted = len(records)
    latencies_ms = [r.latency_s * 1000.0 for r in records]
    failed = sum(1 for r in records if r.missed or r.error or r.wrong)
    unknown = sum(1 for r in records if r.verdict == "unknown" and not r.missed and not r.error)
    return {
        "decisions_per_s": completed / wall_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "latency_p99_ms": percentile(latencies_ms, 99),
        "failed_share": failed / attempted,
        "unknown_share": unknown / attempted,
    }


def pass_metrics(run: RunResult) -> List[Dict[str, float]]:
    """The end-to-end metrics of each pass, setup_s and peak_rss_mb aside."""
    # Every pass poses the same number of questions.
    size = len(run.records) // len(run.walls)
    return [_pass_metrics(run.records[i * size:(i + 1) * size], run.once, wall)
            for i, wall in enumerate(run.walls)]


def end_to_end(run: RunResult) -> Dict[str, float]:
    """The end-to-end metrics of one run (units in run.py's METRICS)."""
    passes = pass_metrics(run)
    out = {"setup_s": run.setup_s}
    out.update({name: statistics.median(p[name] for p in passes) for name in passes[0]})
    out["peak_rss_mb"] = run.peak_rss_mb
    return out


def _record(seed: int, position: int, question, outcome: Outcome) -> Record:
    record = Record(seed, position, question.origin, outcome.latency_s,
                    missed=outcome.missed, error=outcome.error)
    if outcome.result is not None:
        record.verdict = str(outcome.result.verdict)
        record.wrong = checks.verdict_problem(question, outcome.result)
    return record


def _self_rss_kb() -> int:
    return peak_rss_kb(os.getpid()) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _median_setup(build: Callable[[], object], close: Callable[[object], None]):
    """Run *build* SETUP_REPEATS times; keep the last; return (it, median s)."""
    times, built = [], None
    for attempt in range(SETUP_REPEATS):
        if built is not None:
            close(built)
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    return built, statistics.median(times)


def _overhead_pct(pairs: List[tuple]) -> float:
    untraced = sum(u for u, _ in pairs)
    traced = sum(t for _, t in pairs)
    return (traced / untraced - 1.0) * 100.0 if untraced else 0.0


def _decide_all(decider: Decider, questions, trace: bool, pairs: List[tuple],
                raw: dict, outcomes: List[tuple], seed: int) -> dict:
    """Decide *questions* in order into *outcomes*; the verdict checks
    run after the timed loop (see ``_record``)."""
    for position, question in enumerate(questions):
        if trace and position % OVERHEAD_STRIDE == 0:
            outcome = decider.decide(question.q1, question.q2)
            if not outcome.missed:
                plain = outcome.latency_s
                outcome = decider.decide(question.q1, question.q2, traced=True)
                if not outcome.missed:
                    pairs.append((plain, outcome.latency_s))
        else:
            outcome = decider.decide(question.q1, question.q2, traced=trace)
        raw = layers.merge(raw, outcome.trace)
        outcomes.append((seed, position, question, outcome))
    return raw


def pass_seed(seed: int, number: int) -> int:
    """The seed of a run's pass *number*: each pass is a fresh respelling."""
    return seed if number == 0 else seed * 1000 + number


def _passes(seed: int, seconds: float, one_pass: Callable[[int, int], float]) -> List[float]:
    """Run whole passes until *seconds* of timed wall and at least
    MIN_PASSES passes; return each pass's timed wall."""
    walls: List[float] = []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        number = len(walls)
        walls.append(one_pass(pass_seed(seed, number), number))
    return walls


def _decide_once(callers, questions, trace: bool, seed: int, offset: int) -> List[tuple]:
    """Decide *questions* on all *callers* at once, each taking the next
    undecided question; (seed, position, question, outcome) in input order."""
    outcomes: List[Optional[tuple]] = [None] * len(questions)
    todo = iter(enumerate(questions))
    lock = threading.Lock()

    def work(caller: Decider) -> None:
        while True:
            with lock:
                item = next(todo, None)
            if item is None:
                return
            index, question = item
            outcome = caller.decide(question.q1, question.q2, traced=trace)
            outcomes[index] = (seed, offset + index, question, outcome)

    threads = [threading.Thread(target=work, args=(caller,), daemon=True)
               for caller in callers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    # A killed child's replacement must not warm up during a pass.
    for caller in callers:
        caller.wait_ready()
    return outcomes


def _run_cold(seed: int, seconds: float, trace: bool, inputs, deadline_s: float) -> RunResult:
    """Cold ``repro.contains``: the once-per-run questions on two callers
    at once, then passes over the rest on one caller.

    *inputs(seed)* gives (the pass's questions, the once-per-run ones).
    """
    def build():
        # The children import while the inputs are drawn.
        callers = (Decider(deadline_s), Decider(deadline_s))
        questions, once = inputs(seed)
        for caller in callers:
            caller.wait_ready()
        return questions, once, callers

    def close(built) -> None:
        for caller in built[2]:
            caller.close()

    built, setup_s = _median_setup(build, close)
    questions, once, callers = built
    outcomes: List[tuple] = []
    pairs: List[tuple] = []
    state = {"raw": None}

    def one_pass(pass_seed: int, number: int) -> float:
        qs = questions if number == 0 else inputs(pass_seed)[0]
        start = time.perf_counter()
        state["raw"] = _decide_all(callers[0], qs, trace, pairs, state["raw"], outcomes, pass_seed)
        return time.perf_counter() - start

    try:
        # The slow UNKNOWN is decided alone, so that no tail on the other
        # core slows it toward its deadline.
        solo = [q for q in once if "slow_unknown" in q.tags]
        rest = once[len(solo):]
        once_outcomes = (
            _decide_once(callers[:1], solo, trace, seed, len(questions))
            + _decide_once(callers, rest, trace, seed, len(questions) + len(solo)))
        walls = _passes(seed, seconds, one_pass)
    finally:
        close(built)
    for _, _, _, outcome in once_outcomes:
        state["raw"] = layers.merge(state["raw"], outcome.trace)
    rss = max(caller.peak_rss_kb for caller in callers) / 1024.0
    run = RunResult([_record(*entry) for entry in outcomes], walls, setup_s, rss,
                    once=[_record(*entry) for entry in once_outcomes])
    if trace:
        run.layers = state["raw"]
        run.layer_extra["obs.traced_overhead_pct"] = _overhead_pct(pairs)
    return run


def run_fresh_corpus(seed: int, seconds: float, trace: bool) -> RunResult:
    """Cold ``repro.contains`` over the pool; the guarded tails once per run."""
    return _run_cold(seed, seconds, trace, corpus.fresh_corpus, POOL_DEADLINE_S)


def run_paper_families(seed: int, seconds: float, trace: bool) -> RunResult:
    """The paper's families against α-copies; the infeasible probe and the
    1-10 s sizes once per run."""
    return _run_cold(seed, seconds, trace, corpus.paper_families, FAMILY_DEADLINE_S)


# -- engine_repeat ----------------------------------------------------------------

ENGINE_WORKERS = 2


def _reference_verdicts(bases) -> List[object]:
    """Bare ``contains()`` on each base question (cold, same deadline)."""
    out = []
    with Decider(POOL_DEADLINE_S) as decider:
        for question in bases:
            outcome = decider.decide(question.q1, question.q2)
            out.append(outcome.result.verdict if outcome.result is not None else None)
    return out


def scratch_dir(root: Path) -> Path:
    """A fresh directory for stores under the checkout's own .bench_tmp."""
    base = root / ".bench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(dir=base))


def open_engine(directory: Path):
    from repro.engine import BatchEngine

    return BatchEngine(
        cache_dir=str(directory / "cache"),
        workers=ENGINE_WORKERS,
        task_timeout=TASK_TIMEOUT_S,
        catalog=str(directory / "catalog.sqlite"),
        witness_store=str(directory / "witness.sqlite"),
    )


def engine_layer_metrics(metrics: Dict[str, object], submitted: int, timeouts: int) -> Dict[str, float]:
    """Engine-tier per-layer metrics read from the engine's own registry."""
    def count(name: str) -> float:
        value = metrics.get(name, 0)
        return float(value) if isinstance(value, (int, float)) else 0.0

    attempts = count("engine.witness.structural.attempts")
    queue_wait = metrics.get("engine.scheduler.queue_wait") or {}
    return {
        "engine.witness_store.structural.useful_ratio":
            count("engine.witness.structural.hits") / attempts if attempts else 0.0,
        "engine.catalog.short_circuit_ratio":
            count("engine.catalog.short_circuits") / submitted if submitted else 0.0,
        "engine.scheduler.queue_wait_s": float(queue_wait.get("total_s", 0.0)),
        "engine.pool.timeouts": float(timeouts),
    }


def _accumulate(total: Dict[str, object], snapshot: Dict[str, object]) -> None:
    """Sum counters and timer totals of one engine's metric snapshot."""
    for name, value in snapshot.items():
        if isinstance(value, (int, float)):
            total[name] = total.get(name, 0) + value
        elif isinstance(value, dict) and "total_s" in value:
            entry = total.setdefault(name, {"total_s": 0.0})
            entry["total_s"] += value["total_s"]


def is_miss(error: Optional[str]) -> bool:
    """A deadline miss: the request deadline, or the pool's task timeout."""
    return bool(error and (error == "deadline" or "timed out" in error))


def _job_record(seed: int, position: int, question, result, latency: float,
                references: List[object]) -> Record:
    timed_out = is_miss(result.error)
    record = Record(seed, position, question.origin, latency, missed=timed_out,
                    error=None if timed_out else result.error)
    if result.value is not None and not timed_out:
        record.verdict = str(result.value.verdict)
        reference = references[question.base] if question.base is not None else None
        record.wrong = checks.verdict_problem(question, result.value, reference)
    return record


def run_stream(engine, questions) -> List[tuple]:
    """The closed loop: submit, wait, next; (question, result, latency) each."""
    from repro.engine import ContainmentJob

    out = []
    for question in questions:
        start = time.perf_counter()
        job = ContainmentJob(question.q1, question.q2)
        result = engine.submit(job, deadline=REQUEST_DEADLINE_S).result()
        out.append((question, result, time.perf_counter() - start))
    return out


def run_engine_repeat(seed: int, seconds: float, trace: bool, root: Path) -> RunResult:
    """One BatchEngine (sqlite cache, catalog, witness store, 2 workers),
    one closed-loop caller, on the repeat stream."""
    def build(pass_seed: int):
        stream = corpus.repeat_stream(pass_seed)
        directory = scratch_dir(root)
        return stream, directory, open_engine(directory)

    def close(built) -> None:
        built[2].close()
        shutil.rmtree(built[1], ignore_errors=True)
        # The next pass starts from the state this one did: the program's
        # process-wide caches (interned terms, plans) would otherwise grow
        # from pass to pass, and with them every collection and fork.
        repro.clear_caches()
        gc.collect()

    if trace:
        layers.install(layers.ENGINE_LAYERS)
    # Each pass opens its own engine: setup_s is the median opening.
    setup_times: List[float] = []

    def timed_build(pass_seed: int):
        start = time.perf_counter()
        built = build(pass_seed)
        setup_times.append(time.perf_counter() - start)
        return built

    first = timed_build(seed)
    # Every pass re-spells the same base questions (see repeat_stream).
    references = _reference_verdicts(first[0].bases)
    records: List[Record] = []
    engine_metrics: Dict[str, object] = {}
    peak = [0]
    timeouts = [0]

    def one_pass(pass_seed: int, number: int) -> float:
        built = first if number == 0 else timed_build(pass_seed)
        try:
            start = time.perf_counter()
            results = run_stream(built[2], built[0].questions)
            wall = time.perf_counter() - start
            _accumulate(engine_metrics, built[2].stats()["metrics"])
            if number == 0:
                # Later passes would add only the records this process keeps.
                peak[0] = max(_self_rss_kb(),
                              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        finally:
            close(built)
        for position, (question, result, latency) in enumerate(results):
            records.append(_job_record(pass_seed, position, question, result, latency, references))
            timeouts[0] += bool(result.error and "timed out" in result.error)
        return wall

    try:
        walls = _passes(seed, seconds, one_pass)
    finally:
        raw = layers.collect() if trace else None
        layers.uninstall()
    setup_s = statistics.median(setup_times)
    run = RunResult(records, walls, setup_s, peak[0] / 1024.0)
    if trace:
        from . import serve_load

        raw["decisions"] = len(records)
        run.layers = raw
        run.layer_extra = engine_layer_metrics(engine_metrics, len(records), timeouts[0])
        # The tracing cost: the last pass's stream again, untraced, in a
        # fresh engine of the same warm process.
        built = build(pass_seed(seed, len(walls) - 1))
        start = time.perf_counter()
        run_stream(built[2], built[0].questions)
        untraced_s = time.perf_counter() - start
        close(built)
        run.layer_extra["obs.traced_overhead_pct"] = (walls[-1] / untraced_s - 1.0) * 100.0
        served, problems = serve_load.serve_layer_metrics(seed, root, references)
        run.layer_extra.update(served)
        run.problems.extend(problems)
    return run
