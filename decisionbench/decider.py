"""Cold ``repro.contains`` decisions in a child process, with a hard deadline.

The deadline is enforced by killing the child and switching to a warm
standby, never by a signal inside the decision: an in-process SIGALRM can
fire inside a kernel metrics flush and leave process-wide state half
updated, so a miss could change later decisions.  A fresh process has no
such state to leak.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from . import layers


def peak_rss_kb(pid: int) -> int:
    """The high-water resident set of process *pid* (Linux ``VmHWM``), in KiB."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _warm_up() -> None:
    """Run every decision path once, so that no timed decision pays the
    process's one-time costs (lazy imports, first compiles); a child that
    replaces a killed one would otherwise charge them to its first
    question."""
    import random

    import repro
    from repro.generators.random_omqs import FRAGMENTS, PAIR_MODES, random_omq_pair

    rng = random.Random("warm-up")
    for fragment in FRAGMENTS:
        for mode in PAIR_MODES:
            q1, q2, _ = random_omq_pair(fragment, rng, mode=mode)
            repro.clear_caches()
            repro.contains(q1, q2)


def _exit_with_parent(parent: int) -> None:
    """End this child once its parent is gone, even mid-decision: a
    killed benchmark must not leave a tail decision running."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _worker_main(conn, parent: int) -> None:  # runs in the child process
    import gc

    import repro

    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()
    _warm_up()
    # The program itself is not garbage: keep it out of every collection.
    gc.collect()
    gc.freeze()
    conn.send("ready")
    while True:
        message = conn.recv()
        if message is None:
            return
        q1, q2, traced = message
        # Start from a collected heap, as a fresh process would: garbage an
        # earlier decision left must not be collected on this one's time.
        repro.clear_caches()
        gc.collect()
        if traced:
            layers.install()
        error = None
        result = None
        start = time.perf_counter()
        try:
            result = repro.contains(q1, q2)
        except Exception as exc:  # reported as a failed decision
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        trace = None
        if traced:
            layers.uninstall()
            trace = layers.collect(decisions=1)
        conn.send((elapsed, result, error, trace))


@dataclass
class Outcome:
    """What one decision produced, as the caller saw it."""

    latency_s: float
    result: Any = None
    error: Optional[str] = None
    missed: bool = False
    trace: Optional[dict] = None


class _Child:
    def __init__(self, ctx) -> None:
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_worker_main, args=(child_conn, os.getpid()), daemon=True)
        self.proc.start()
        child_conn.close()
        self.ready = False

    def wait_ready(self) -> None:
        if not self.ready:
            if self.conn.recv() != "ready":
                raise RuntimeError("decider child failed to start")
            self.ready = True

    def stop(self, kill: bool = False) -> None:
        if kill:
            self.proc.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                self.proc.kill()
        self.proc.join(5)
        if self.proc.is_alive():
            self.proc.kill()
            self.proc.join()
        self.conn.close()


class Decider:
    """One closed-loop caller: a child that decides, and a warm standby."""

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = deadline_s
        self._ctx = mp.get_context("spawn")
        self._active = _Child(self._ctx)
        self._standby = _Child(self._ctx)
        self.peak_rss_kb = 0

    def wait_ready(self) -> None:
        self._active.wait_ready()
        self._standby.wait_ready()

    def decide(self, q1, q2, traced: bool = False) -> Outcome:
        child = self._active
        child.wait_ready()
        start = time.perf_counter()
        child.conn.send((q1, q2, traced))
        if child.conn.poll(self.deadline_s):
            elapsed, result, error, trace = child.conn.recv()
            # Read after completed decisions only: how far a killed tail
            # grew before its deadline depends on the machine's speed.
            self.peak_rss_kb = max(self.peak_rss_kb, peak_rss_kb(child.proc.pid))
            return Outcome(elapsed, result, error, trace=trace)
        child.stop(kill=True)
        latency = time.perf_counter() - start
        self._active, self._standby = self._standby, _Child(self._ctx)
        return Outcome(latency, missed=True)

    def close(self) -> None:
        for child in (self._active, self._standby):
            child.stop()

    def __enter__(self) -> "Decider":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def stop_helpers() -> None:
    """Kill any child still running (only a failed run leaves one), then
    stop the helper process that ``spawn`` children share (the
    multiprocessing resource tracker) and wait for it."""
    from multiprocessing import resource_tracker

    for child in mp.active_children():
        child.kill()
        child.join()
    tracker = resource_tracker._resource_tracker
    # Only the process that started the tracker knows its pid.
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()
