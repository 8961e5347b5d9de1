"""A crash-isolated, persistent multiprocessing worker pool.

``multiprocessing.Pool`` is the obvious tool and the wrong one: a worker
that segfaults or is OOM-killed poisons the whole pool (tasks hang
forever), and there is no per-task timeout.  Containment checks are
2EXPTIME-worst-case (Table 1 of the paper), so both failure modes are
expected in production, not exceptional.  This pool therefore manages its
workers directly:

* one duplex pipe per worker; the coordinator assigns one task at a time
  and waits on the busy pipes with :func:`multiprocessing.connection.wait`
  (a dead worker closes its pipe end, which wakes the wait — crash
  detection costs no polling);
* a task that exceeds ``task_timeout`` gets its worker terminated and a
  :class:`TaskOutcome` failure; the worker is respawned and the rest of
  the work is unaffected;
* a worker that dies mid-task (any exit, including ``SIGKILL``) likewise
  fails only its own task;
* ``workers=1`` executes tasks serially in-process — no subprocesses, no
  timeout enforcement — which is also the debuggable path.

The pool is *persistent*: :meth:`WorkerPool.submit` injects a task and
returns a :class:`PoolTicket` immediately; a coordinator thread (lazily
started, one per pool) dispatches tasks to long-lived workers and
completes tickets as results arrive.  A submission made while earlier
tasks are still running reuses the warm workers instead of paying a
spawn per batch.  :meth:`WorkerPool.run` is the one-shot convenience:
submit everything, drain in input order, then let the workers retire once
the pool is idle (so bare ``run()`` callers do not leak processes).

The pool schedules *jobs* in the :mod:`repro.engine.jobs` sense: picklable
objects with a ``run()`` method.  It knows nothing about caching or
verdicts; the engine maps failures onto per-kind results.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

#: Failure string for tasks cancelled before dispatch.
CANCELLED = "cancelled"

#: Failure string for tasks abandoned by :meth:`WorkerPool.close`.
POOL_CLOSED = "pool closed"


@dataclass
class TaskOutcome:
    """What happened to one task: a value or a failure reason."""

    value: Any = None
    failure: Optional[str] = None
    duration: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None


def _worker_main(conn, inherited=()) -> None:  # pragma: no cover - subprocess
    """Worker loop: receive ``(seq, task)``, run it, send the outcome back.

    *inherited* holds the coordinator-side pipe ends a forked worker got
    copies of (its own and its older siblings').  They are closed first:
    a pipe reports EOF only once every copy of the far end is closed, so
    a worker holding them would never notice its coordinator dying and
    would outlive it as an orphan.
    """
    for end in inherited:
        end.close()
    # A forked worker inherits the parent's signal setup.  Under asyncio
    # (``repro serve``) that includes the loop's wake-up fd, so a SIGTERM
    # sent to retire this worker would be written into the *server's*
    # loop and start its drain.  Detach from it and take default actions.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                break
            seq, task = msg
            start = time.perf_counter()
            try:
                value = task.run()
                outcome = (seq, "ok", value, time.perf_counter() - start)
            except BaseException as exc:
                outcome = (
                    seq,
                    "error",
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - start,
                )
            try:
                conn.send(outcome)
            except Exception:
                try:
                    conn.send(
                        (
                            seq,
                            "error",
                            "worker result was not picklable",
                            time.perf_counter() - start,
                        )
                    )
                except Exception:
                    break
    except (EOFError, OSError, KeyboardInterrupt):
        pass


class _Worker:
    __slots__ = ("proc", "conn", "task_seq", "deadline")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.task_seq: Optional[int] = None
        self.deadline: Optional[float] = None


class PoolTicket:
    """A handle for one submitted task; completed exactly once."""

    __slots__ = ("seq", "task", "outcome", "_event", "_lock", "_callbacks")

    def __init__(self, seq: int, task: Any) -> None:
        self.seq = seq
        self.task = task
        self.outcome: Optional[TaskOutcome] = None
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._callbacks: List[Callable[["PoolTicket"], None]] = []

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> TaskOutcome:
        """Block until the outcome is available (or ``TimeoutError``)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"task {self.seq} not done after {timeout}s")
        assert self.outcome is not None
        return self.outcome

    def add_done_callback(
        self, callback: Callable[["PoolTicket"], None]
    ) -> None:
        """Run *callback(ticket)* on completion (immediately if done).

        Callbacks fire on whichever thread completes the ticket — keep
        them short and never let them block on pool internals.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    # -- internal ---------------------------------------------------------

    def _complete(self, outcome: TaskOutcome) -> bool:
        with self._lock:
            if self._event.is_set():
                return False
            self.outcome = outcome
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:  # callbacks must never sink the coordinator
                pass
        return True


class WorkerPool:
    """Run picklable tasks across worker processes, tolerating failures."""

    #: How often an idle-crashed worker may bounce a task back before the
    #: task itself is failed.
    MAX_REQUEUES = 3

    def __init__(
        self,
        workers: int = 1,
        task_timeout: Optional[float] = None,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.task_timeout = task_timeout
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self._ctx = mp.get_context(start_method)
        self._cond = threading.Condition()
        self._pending: Deque[PoolTicket] = deque()
        self._seq = itertools.count()
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._stop_when_idle = False
        # Self-pipe: wakes a coordinator blocked in connection.wait when a
        # submit/cancel/close happens.  Created with the coordinator.
        self._wake_r = None
        self._wake_w = None

    # -- serial fallback --------------------------------------------------

    @staticmethod
    def _execute_inline(task: Any, reraise_interrupt: bool) -> TaskOutcome:
        """Run *task* in this process with the workers' failure semantics.

        Workers catch ``BaseException`` (a job calling ``sys.exit`` fails
        its task, not the batch); the inline path must agree, with the one
        exception that a ``KeyboardInterrupt`` on the calling thread keeps
        propagating so Ctrl-C still works.
        """
        start = time.perf_counter()
        try:
            value = task.run()
        except KeyboardInterrupt:
            if reraise_interrupt:
                raise
            return TaskOutcome(
                failure="KeyboardInterrupt: ",
                duration=time.perf_counter() - start,
            )
        except BaseException as exc:
            return TaskOutcome(
                failure=f"{type(exc).__name__}: {exc}",
                duration=time.perf_counter() - start,
            )
        return TaskOutcome(value=value, duration=time.perf_counter() - start)

    def _run_serial(self, tasks: Sequence[Any]) -> List[TaskOutcome]:
        return [self._execute_inline(t, reraise_interrupt=True) for t in tasks]

    # -- submission API ---------------------------------------------------

    def submit(self, task: Any) -> PoolTicket:
        """Enqueue *task* without blocking; returns its ticket.

        The coordinator thread (and, for ``workers > 1``, the worker
        processes) start lazily on first use and stay warm for later
        submissions until :meth:`close`.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("pool is closed")
            ticket = PoolTicket(next(self._seq), task)
            self._pending.append(ticket)
            self._ensure_coordinator()
            self._cond.notify_all()
        self._signal()
        return ticket

    def cancel(self, ticket: PoolTicket) -> bool:
        """Cancel *ticket* if it has not been dispatched to a worker yet."""
        with self._cond:
            try:
                self._pending.remove(ticket)
            except ValueError:
                return False
        ticket._complete(TaskOutcome(failure=CANCELLED))
        return True

    def run(self, tasks: Sequence[Any]) -> List[TaskOutcome]:
        """Run all tasks; outcomes are returned in input order.

        ``workers == 1`` executes inline (deterministic, no processes).
        With ``workers > 1`` every multi-task batch — and any single-task
        batch with a ``task_timeout`` — goes through the worker pool, so
        timeouts and crash isolation hold even for a batch of one; a
        single task with no timeout keeps the cheap inline path.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        if self.workers == 1 or (
            len(tasks) == 1 and self.task_timeout is None
        ):
            return self._run_serial(tasks)
        tickets = [self.submit(task) for task in tasks]
        try:
            outcomes = [t.wait() for t in tickets]
        finally:
            self._request_stop_when_idle()
        return outcomes

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut down: fail unfinished tickets, terminate the workers."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            thread = self._thread
            self._cond.notify_all()
        self._signal()
        if thread is not None:
            thread.join(timeout=join_timeout)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- coordination internals -------------------------------------------

    def _ensure_coordinator(self) -> None:
        # Caller holds self._cond.
        if self._thread is not None and self._thread.is_alive():
            return
        if self.workers > 1 and self._wake_r is None:
            self._wake_r, self._wake_w = self._ctx.Pipe(duplex=False)
        target = (
            self._serial_loop if self.workers == 1 else self._coordinate
        )
        self._thread = threading.Thread(
            target=target, daemon=True, name="repro-pool-coordinator"
        )
        self._thread.start()

    def _request_stop_when_idle(self) -> None:
        """Retire the workers once nothing is pending or running.

        This keeps bare ``run()`` callers from leaking processes while
        letting concurrent ``submit()`` streams keep the pool warm: the
        coordinator only acts on the flag at a fully idle instant, and the
        next submission simply starts a fresh coordinator.
        """
        with self._cond:
            if self._closed:
                return
            self._stop_when_idle = True
            self._cond.notify_all()
        self._signal()

    def _signal(self) -> None:
        w = self._wake_w
        if w is None:
            return
        try:
            w.send(b"w")
        except Exception:
            pass

    def _drain_wakeups(self) -> None:
        r = self._wake_r
        try:
            while r.poll(0):
                r.recv()
        except (EOFError, OSError):
            pass

    # -- serial coordinator (workers == 1) --------------------------------

    def _serial_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    if self._stop_when_idle:
                        self._stop_when_idle = False
                        self._thread = None
                        return
                    self._cond.wait()
                if self._closed:
                    doomed = list(self._pending)
                    self._pending.clear()
                    self._thread = None
                    break
                ticket = self._pending.popleft()
            ticket._complete(
                self._execute_inline(ticket.task, reraise_interrupt=False)
            )
        for ticket in doomed:
            ticket._complete(TaskOutcome(failure=POOL_CLOSED))

    # -- parallel coordinator (workers > 1) --------------------------------

    def _spawn(self, siblings: Sequence[_Worker]) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Only a forked child inherits the coordinator's pipe ends; under
        # spawn/forkserver, passing them would hand the child new copies.
        inherited = (
            tuple(w.conn for w in siblings) + (parent_conn,)
            if self._ctx.get_start_method() == "fork"
            else ()
        )
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn, inherited), daemon=True
        )
        proc.start()
        child_conn.close()
        return _Worker(proc, parent_conn)

    @staticmethod
    def _retire(worker: _Worker, graceful: bool = True) -> None:
        try:
            if graceful and worker.proc.is_alive():
                worker.conn.send(None)
        except Exception:
            pass
        try:
            worker.conn.close()
        except Exception:
            pass
        worker.proc.join(timeout=0.5)
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=0.5)
        if worker.proc.is_alive():  # pragma: no cover - stuck in a syscall
            worker.proc.kill()
            worker.proc.join(timeout=0.5)

    def _coordinate(self) -> None:
        workers: List[_Worker] = []
        running: Dict[int, PoolTicket] = {}
        requeues: Dict[int, int] = {}
        doomed: List[PoolTicket] = []
        try:
            while True:
                # -- exit conditions ----------------------------------
                with self._cond:
                    if self._closed:
                        doomed = list(self._pending)
                        self._pending.clear()
                        self._thread = None
                        doomed.extend(running.values())
                        running.clear()
                        return
                    if (
                        self._stop_when_idle
                        and not self._pending
                        and not running
                    ):
                        self._stop_when_idle = False
                        self._thread = None
                        return

                # -- assign pending tasks to idle workers --------------
                while True:
                    with self._cond:
                        if not self._pending:
                            break
                        idle = next(
                            (w for w in workers if w.task_seq is None), None
                        )
                        if idle is None and len(workers) >= self.workers:
                            break
                        ticket = self._pending.popleft()
                    if idle is None:
                        idle = self._spawn(workers)
                        workers.append(idle)
                    try:
                        idle.conn.send((ticket.seq, ticket.task))
                    except OSError:
                        # The worker died while idle: replace it and retry
                        # the task elsewhere (bounded, in case spawning is
                        # itself broken).
                        workers.remove(idle)
                        self._retire(idle, graceful=False)
                        n = requeues[ticket.seq] = (
                            requeues.get(ticket.seq, 0) + 1
                        )
                        if n > self.MAX_REQUEUES:
                            ticket._complete(
                                TaskOutcome(
                                    failure="worker died before task start"
                                )
                            )
                        else:
                            with self._cond:
                                self._pending.appendleft(ticket)
                        continue
                    except Exception as exc:
                        ticket._complete(
                            TaskOutcome(failure=f"task not picklable: {exc}")
                        )
                        continue
                    idle.task_seq = ticket.seq
                    idle.deadline = (
                        time.monotonic() + self.task_timeout
                        if self.task_timeout
                        else None
                    )
                    running[ticket.seq] = ticket

                # -- wait for results, wakeups, or deadlines -----------
                busy = [w for w in workers if w.task_seq is not None]
                deadlines = [
                    w.deadline for w in busy if w.deadline is not None
                ]
                wait_timeout: Optional[float] = None
                if deadlines:
                    wait_timeout = max(
                        0.0, min(deadlines) - time.monotonic()
                    )
                ready = mp_connection.wait(
                    [self._wake_r] + [w.conn for w in busy],
                    timeout=wait_timeout,
                )
                by_conn = {w.conn: w for w in busy}
                for conn in ready:
                    if conn is self._wake_r:
                        self._drain_wakeups()
                        continue
                    w = by_conn[conn]
                    try:
                        seq, status, payload, duration = conn.recv()
                    except (EOFError, OSError):
                        seq = w.task_seq
                        w.proc.join(timeout=0.5)
                        code = w.proc.exitcode
                        ticket = running.pop(seq, None)
                        if ticket is not None:
                            ticket._complete(
                                TaskOutcome(
                                    failure=(
                                        f"worker crashed (exit code {code})"
                                    )
                                )
                            )
                        workers.remove(w)
                        self._retire(w, graceful=False)
                        continue
                    ticket = running.pop(seq, None)
                    if ticket is not None:
                        if status == "ok":
                            ticket._complete(
                                TaskOutcome(value=payload, duration=duration)
                            )
                        else:
                            ticket._complete(
                                TaskOutcome(
                                    failure=payload, duration=duration
                                )
                            )
                    w.task_seq = None
                    w.deadline = None

                # -- enforce per-task deadlines ------------------------
                now = time.monotonic()
                for w in list(workers):
                    if (
                        w.task_seq is None
                        or w.deadline is None
                        or now < w.deadline
                    ):
                        continue
                    ticket = running.pop(w.task_seq, None)
                    if ticket is not None:
                        ticket._complete(
                            TaskOutcome(
                                failure=(
                                    f"timed out after {self.task_timeout}s"
                                )
                            )
                        )
                    workers.remove(w)
                    self._retire(w, graceful=False)
        finally:
            for w in workers:
                self._retire(w)
            for ticket in doomed:
                ticket._complete(TaskOutcome(failure=POOL_CLOSED))
