"""Per-layer timing from outside the program: wrappers at the binding sites.

A function is wrapped where its name is *bound*, not only where it is
defined: ``small_witness.evaluate_omq`` is the name the small-witness scan
calls, so wrapping ``repro.evaluation.evaluate_omq`` alone would miss it.
Each wrapper records calls, inclusive seconds and self seconds (duration
minus the nested wrapped calls, tracked on a per-thread stack), and may
observe the result (a subsumption hit, an inexact evaluation, the
rewriting's size).  The counters the program already keeps
(``repro.kernel.KERNEL_METRICS``, the engine registry) are read, not
re-implemented.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# (module, attribute path, layer name, observer).  A layer may be bound
# in several places; all of its wrappers feed one entry.
BINDINGS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro", "contains", "containment.decide", None),
    ("repro.containment.dispatch", "cq_subsumption", "containment.subsumption", "hit"),
    ("repro.containment.dispatch", "contains_via_small_witness", "containment.small_witness", None),
    ("repro.containment.guarded", "contains_via_small_witness", "containment.small_witness", None),
    ("repro.containment.dispatch", "contains_guarded", "containment.guarded", None),
    ("repro.containment.dispatch", "contains_propositional", "containment.propositional", None),
    ("repro.containment.dispatch", "best_class", "fragments.best_class", None),
    ("repro.evaluation", "xrewrite", "rewriting.xrewrite", "rewriting"),
    ("repro.core.queries", "CQ.core", "core.cq_core", None),
    ("repro.core.queries", "CQ.is_isomorphic_to", "core.isomorphism", None),
    ("repro.evaluation", "evaluate_omq", "evaluation.evaluate_omq", "exact"),
    ("repro.containment.small_witness", "evaluate_omq", "evaluation.evaluate_omq", "exact"),
    ("repro.containment.guarded", "evaluate_omq", "evaluation.evaluate_omq", "exact"),
    ("repro.containment.propositional", "evaluate_omq", "evaluation.evaluate_omq", "exact"),
    ("repro.evaluation", "chase", "chase.chase", None),
    ("repro.engine.jobs", "hash_omq", "engine.canon.hash_omq", None),
    ("repro.engine.cache", "ResultCache.get", "engine.cache.get", "found"),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.put", None),
    ("repro.engine.witness_store", "WitnessStore.replay", "engine.witness_store.replay", "hit"),
    ("repro.engine.witness_store", "WitnessStore.record", "engine.witness_store.record", None),
)

#: Binding sites that must fire at least once on each workload's traced
#: run, so a binding the program stopped using cannot silently report
#: zero.  Decisions on the engine and serve workloads run in pool worker
#: processes, which these wrappers do not reach; there only the engine
#: tiers (in the scheduler's process) are required.
_PROPOSITIONAL_SITES = (
    "repro.containment.dispatch:contains_propositional",
    "repro.containment.propositional:evaluate_omq",
)
_DECISION_SITES = (
    "repro:contains",
    "repro.containment.dispatch:cq_subsumption",
    "repro.containment.dispatch:contains_via_small_witness",
    "repro.containment.guarded:contains_via_small_witness",
    "repro.containment.dispatch:contains_guarded",
    "repro.containment.dispatch:best_class",
    "repro.evaluation:xrewrite",
    "repro.core.queries:CQ.core",
    "repro.core.queries:CQ.is_isomorphic_to",
    "repro.containment.small_witness:evaluate_omq",
    "repro.containment.guarded:evaluate_omq",
    "repro.evaluation:chase",
)
ENGINE_LAYERS = (
    "engine.canon.hash_omq", "engine.cache.get", "engine.cache.put",
    "engine.witness_store.replay", "engine.witness_store.record",
)
_ENGINE_SITES = (
    "repro.engine.jobs:hash_omq", "repro.engine.cache:ResultCache.get",
    "repro.engine.cache:ResultCache.put",
    "repro.engine.witness_store:WitnessStore.replay",
    "repro.engine.witness_store:WitnessStore.record",
)
REQUIRED = {
    "fresh_corpus": _DECISION_SITES + _PROPOSITIONAL_SITES,
    "paper_families": _DECISION_SITES,
    "engine_repeat": _ENGINE_SITES,
}

KERNEL_COUNTERS = (
    "kernel.hom.searches", "kernel.hom.backtracks", "kernel.plan.hits",
    "kernel.plan.misses", "kernel.small_witness.shortcuts", "kernel.chase.rounds",
)

_lock = threading.Lock()
_local = threading.local()
_spans: Dict[str, List[float]] = {}
_counts: Dict[str, float] = {}
_installed: List[Tuple[Any, str, Any]] = []


def _after_fork_in_child() -> None:
    # A pool worker forked while another thread held the lock would
    # otherwise block on its first wrapped call; its figures are never
    # collected, so it starts empty.
    global _lock
    _lock = threading.Lock()
    _spans.clear()
    _counts.clear()


os.register_at_fork(after_in_child=_after_fork_in_child)


def _bump(name: str, value: float = 1) -> None:
    _counts[name] = _counts.get(name, 0) + value


def _observe(kind: Optional[str], layer: str, result: Any, exc: Optional[BaseException]) -> None:
    if kind == "hit":
        _bump(f"{layer}.hits", result is not None)
    elif kind == "found":
        _bump(f"{layer}.hits", bool(result and result[0]))
    elif kind == "exact":
        _bump(f"{layer}.inexact", result is not None and not result.exact)
    elif kind == "rewriting":
        partial = getattr(exc, "partial", None) if exc is not None else result
        if partial is not None:
            _bump("rewriting.queries_generated", partial.stats.queries_generated)
            _bump("rewriting.queries_final", partial.stats.queries_final)
            _bump("rewriting.incomplete", not partial.complete)


def _wrap(fn: Callable, layer: str, kind: Optional[str], site: str) -> Callable:
    fired = f"fired.{site}"

    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        frame = [0.0]
        stack.append(frame)
        result, error = None, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with _lock:
                entry = _spans.setdefault(layer, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                _bump(fired)
                _observe(kind, layer, result, error)

    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def install(only: Optional[Tuple[str, ...]] = None) -> None:
    """Wrap every binding site, or those of the layers in *only* (idempotent)."""
    if _installed:
        return
    for module, path, layer, kind in BINDINGS:
        if only is not None and layer not in only:
            continue
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        setattr(owner, attr, _wrap(original, layer, kind, f"{module}:{path}"))
        _installed.append((owner, attr, original))


def uninstall() -> None:
    """Put every original function back."""
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


def collect(decisions: int = 0) -> dict:
    """This process's raw accumulations since the last collect, then reset.

    Kernel counters are read here because ``repro.clear_caches()`` zeroes
    them before every cold decision.
    """
    from repro.kernel import KERNEL_METRICS

    snapshot = KERNEL_METRICS.snapshot()
    with _lock:
        raw = {
            "spans": {k: list(v) for k, v in _spans.items()},
            "counts": dict(_counts),
            "decisions": decisions,
        }
        _spans.clear()
        _counts.clear()
    for name in KERNEL_COUNTERS:
        raw["counts"][name] = raw["counts"].get(name, 0) + snapshot.get(name, 0)
    KERNEL_METRICS.reset()
    return raw


def merge(total: Optional[dict], raw: Optional[dict]) -> dict:
    """Add *raw* into *total* (either may be None)."""
    total = total or {"spans": {}, "counts": {}, "decisions": 0}
    if raw:
        for name, (calls, inclusive, own) in raw["spans"].items():
            entry = total["spans"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += inclusive
            entry[2] += own
        for name, value in raw["counts"].items():
            total["counts"][name] = total["counts"].get(name, 0) + value
        total["decisions"] += raw["decisions"]
    return total


def fired(raw: dict) -> Dict[str, int]:
    """How often each binding site fired."""
    return {f"{m}:{p}": int(raw["counts"].get(f"fired.{m}:{p}", 0)) for m, p, _, _ in BINDINGS}


def missing(raw: dict, workload: str) -> List[str]:
    """Required binding sites that never fired."""
    counts = fired(raw)
    return [site for site in REQUIRED[workload] if not counts[site]]


# -- the per-layer metrics ------------------------------------------------------

#: metric -> (unit, end-to-end metric it should move, workload it shows on).
PER_LAYER = {
    "containment.decide.calls": ("count", "latency_p99_ms, failed_share", "fresh_corpus"),
    "containment.subsumption.hit_ratio": ("ratio", "latency_p99_ms, failed_share", "fresh_corpus"),
    "containment.small_witness.s": ("s", "latency_p99_ms, failed_share", "fresh_corpus"),
    "containment.guarded.s": ("s", "latency_p99_ms, failed_share", "fresh_corpus"),
    "containment.propositional.s": ("s", "latency_p99_ms, failed_share", "fresh_corpus"),
    "fragments.best_class.calls": ("count", "decisions_per_s", "fresh_corpus (sticky)"),
    "fragments.best_class.s": ("s", "decisions_per_s", "fresh_corpus (sticky)"),
    "fragments.best_class.share": ("ratio", "decisions_per_s", "fresh_corpus (sticky)"),
    "rewriting.xrewrite.calls": ("count", "latency_p99_ms, decisions_per_s", "paper_families, fresh_corpus"),
    "rewriting.xrewrite.s": ("s", "latency_p99_ms, decisions_per_s", "paper_families, fresh_corpus"),
    "rewriting.xrewrite.share": ("ratio", "latency_p99_ms, decisions_per_s", "paper_families, fresh_corpus"),
    "rewriting.queries_generated": ("count", "latency_p99_ms, decisions_per_s", "paper_families, fresh_corpus"),
    "rewriting.queries_final": ("count", "latency_p99_ms, decisions_per_s", "paper_families, fresh_corpus"),
    "rewriting.kept_ratio": ("ratio", "latency_p99_ms, decisions_per_s", "paper_families, fresh_corpus"),
    "rewriting.incomplete": ("count", "latency_p99_ms, decisions_per_s", "paper_families, fresh_corpus"),
    "core.cq_core.calls": ("count", "latency_p99_ms; failed_share", "paper_families; fresh_corpus"),
    "core.cq_core.s": ("s", "latency_p99_ms; failed_share", "paper_families; fresh_corpus"),
    "core.isomorphism.calls": ("count", "latency_p99_ms; failed_share", "paper_families; fresh_corpus"),
    "core.isomorphism.s": ("s", "latency_p99_ms; failed_share", "paper_families; fresh_corpus"),
    "evaluation.evaluate_omq.calls": ("count", "unknown_share, latency_p99_ms", "paper_families, fresh_corpus"),
    "evaluation.evaluate_omq.s": ("s", "unknown_share, latency_p99_ms", "paper_families, fresh_corpus"),
    "evaluation.inexact_share": ("ratio", "unknown_share, latency_p99_ms", "paper_families, fresh_corpus"),
    "chase.chase.calls": ("count", "decisions_per_s", "fresh_corpus (propositional), paper_families"),
    "chase.chase.s": ("s", "decisions_per_s", "fresh_corpus (propositional), paper_families"),
    "kernel.chase.rounds": ("count", "decisions_per_s", "fresh_corpus (propositional), paper_families"),
    "kernel.hom.searches": ("count", "latency_p99_ms", "paper_families"),
    "kernel.hom.per_decision": ("count", "latency_p99_ms", "paper_families"),
    "kernel.hom.backtracks": ("count", "latency_p99_ms", "paper_families"),
    "kernel.plan.hit_ratio": ("ratio", "latency_p99_ms", "paper_families"),
    "kernel.small_witness.shortcuts": ("count", "latency_p99_ms", "paper_families"),
    "engine.canon.hash_omq.s": ("s", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.cache.hit_ratio": ("ratio", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.cache.get.s": ("s", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.cache.put.s": ("s", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.witness_store.replay.s": ("s", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.witness_store.hit_ratio": ("ratio", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.witness_store.structural.useful_ratio": ("ratio", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.witness_store.record.s": ("s", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.catalog.short_circuit_ratio": ("ratio", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.scheduler.queue_wait_s": ("s", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "engine.pool.timeouts": ("count", "latency_p50_ms, decisions_per_s", "engine_repeat"),
    "serve.http.request_time_ms": ("ms", "no bounded metric (the serve_open workload was dropped)", "engine_repeat (traced serve phase)"),
    "serve.transport_ms": ("ms", "no bounded metric (the serve_open workload was dropped)", "engine_repeat (traced serve phase)"),
    "serve.inline_share": ("ratio", "no bounded metric (the serve_open workload was dropped)", "engine_repeat (traced serve phase)"),
    "serve.sender_late_ms": ("ms", "no bounded metric (the serve_open workload was dropped)", "engine_repeat (traced serve phase)"),
    "obs.traced_overhead_pct": ("%", "none (the tracing cost)", "all"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, decision_s: float) -> Dict[str, float]:
    """The decision- and kernel-layer metrics from merged raw accumulations.

    ``.s`` is self time; ``.share`` divides it by *decision_s*, the summed
    latency of the traced decisions.  Engine and serve metrics are filled
    in by their workloads; everything a workload cannot observe stays 0.
    """
    spans, counts = raw["spans"], raw["counts"]

    def calls(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def own(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "containment.decide.calls": calls("containment.decide"),
        "containment.subsumption.hit_ratio": _ratio(
            counts.get("containment.subsumption.hits", 0), calls("containment.subsumption")),
        "containment.small_witness.s": own("containment.small_witness"),
        "containment.guarded.s": own("containment.guarded"),
        "containment.propositional.s": own("containment.propositional"),
        "fragments.best_class.calls": calls("fragments.best_class"),
        "fragments.best_class.s": own("fragments.best_class"),
        "fragments.best_class.share": _ratio(own("fragments.best_class"), decision_s),
        "rewriting.xrewrite.calls": calls("rewriting.xrewrite"),
        "rewriting.xrewrite.s": own("rewriting.xrewrite"),
        "rewriting.xrewrite.share": _ratio(own("rewriting.xrewrite"), decision_s),
        "rewriting.queries_generated": counts.get("rewriting.queries_generated", 0),
        "rewriting.queries_final": counts.get("rewriting.queries_final", 0),
        "rewriting.kept_ratio": _ratio(
            counts.get("rewriting.queries_final", 0), counts.get("rewriting.queries_generated", 0)),
        "rewriting.incomplete": counts.get("rewriting.incomplete", 0),
        "core.cq_core.calls": calls("core.cq_core"),
        "core.cq_core.s": own("core.cq_core"),
        "core.isomorphism.calls": calls("core.isomorphism"),
        "core.isomorphism.s": own("core.isomorphism"),
        "evaluation.evaluate_omq.calls": calls("evaluation.evaluate_omq"),
        "evaluation.evaluate_omq.s": own("evaluation.evaluate_omq"),
        "evaluation.inexact_share": _ratio(
            counts.get("evaluation.evaluate_omq.inexact", 0), calls("evaluation.evaluate_omq")),
        "chase.chase.calls": calls("chase.chase"),
        "chase.chase.s": own("chase.chase"),
        "kernel.chase.rounds": counts.get("kernel.chase.rounds", 0),
        "kernel.hom.searches": counts.get("kernel.hom.searches", 0),
        "kernel.hom.per_decision": _ratio(counts.get("kernel.hom.searches", 0), raw["decisions"]),
        "kernel.hom.backtracks": counts.get("kernel.hom.backtracks", 0),
        "kernel.plan.hit_ratio": _ratio(
            counts.get("kernel.plan.hits", 0),
            counts.get("kernel.plan.hits", 0) + counts.get("kernel.plan.misses", 0)),
        "kernel.small_witness.shortcuts": counts.get("kernel.small_witness.shortcuts", 0),
        "engine.canon.hash_omq.s": own("engine.canon.hash_omq"),
        "engine.cache.hit_ratio": _ratio(counts.get("engine.cache.get.hits", 0), calls("engine.cache.get")),
        "engine.cache.get.s": own("engine.cache.get"),
        "engine.cache.put.s": own("engine.cache.put"),
        "engine.witness_store.replay.s": own("engine.witness_store.replay"),
        "engine.witness_store.hit_ratio": _ratio(
            counts.get("engine.witness_store.replay.hits", 0), calls("engine.witness_store.replay")),
        "engine.witness_store.record.s": own("engine.witness_store.record"),
    })
    return out
