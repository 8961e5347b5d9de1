"""The crash-isolated worker pool: ordering, isolation, timeouts, and the
persistent submit/ticket layer the scheduler builds on.

Parallel tests use short sleeps; each asserts behaviour (which task
failed, result order), not wall-clock performance — timing claims live in
``benchmarks/bench_engine_batch.py``.

Parallel-path tests are parametrized over the available multiprocessing
start methods so the ``spawn`` path (the macOS/Windows default) is
exercised on Linux CI too, not just ``fork``.
"""

import multiprocessing as mp
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.jobs import CrashJob, SleepJob
from repro.engine.pool import CANCELLED, POOL_CLOSED, TaskOutcome, WorkerPool

START_METHODS = [
    m for m in ("fork", "spawn") if m in mp.get_all_start_methods()
]


@pytest.fixture(params=START_METHODS)
def start_method(request):
    return request.param


class _RaisingJob:
    """A job whose run() raises (picklable because module-level)."""

    def run(self):
        raise ValueError("intentional failure")


class _EchoJob:
    def __init__(self, payload):
        self.payload = payload

    def run(self):
        return self.payload


class _SystemExitJob:
    """A job that calls the moral equivalent of ``sys.exit``."""

    def run(self):
        raise SystemExit(3)


class _PidJob:
    """Report the hosting process id (observes worker reuse)."""

    def run(self):
        time.sleep(0.05)
        return os.getpid()


class TestSerialFallback:
    def test_results_in_order(self):
        pool = WorkerPool(workers=1)
        out = pool.run([_EchoJob(i) for i in range(5)])
        assert [o.value for o in out] == list(range(5))
        assert all(o.ok for o in out)

    def test_exception_isolated(self):
        pool = WorkerPool(workers=1)
        out = pool.run([_EchoJob(0), _RaisingJob(), _EchoJob(2)])
        assert out[0].ok and out[2].ok
        assert not out[1].ok
        assert "intentional failure" in out[1].failure

    def test_deterministic(self):
        pool = WorkerPool(workers=1)
        tasks = [_EchoJob(i) for i in range(4)]
        assert [o.value for o in pool.run(tasks)] == [
            o.value for o in pool.run(tasks)
        ]

    def test_empty_batch(self):
        assert WorkerPool(workers=1).run([]) == []
        assert WorkerPool(workers=4).run([]) == []

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)

    def test_system_exit_fails_task_not_batch(self):
        # Regression: the serial path used to catch only Exception while
        # workers catch BaseException, so a SystemExit-raising job killed
        # a serial batch but merely failed its task in a parallel one.
        out = WorkerPool(workers=1).run(
            [_EchoJob(0), _SystemExitJob(), _EchoJob(2)]
        )
        assert [o.ok for o in out] == [True, False, True]
        assert "SystemExit" in out[1].failure

    def test_system_exit_failure_matches_parallel_path(self):
        serial = WorkerPool(workers=1).run([_SystemExitJob()])
        with WorkerPool(workers=2) as pool:
            parallel = pool.run([_SystemExitJob(), _EchoJob(1)])
        assert serial[0].failure == parallel[0].failure == "SystemExit: 3"


class TestParallelPool:
    def test_results_in_input_order(self):
        with WorkerPool(workers=3) as pool:
            # Longer sleeps first, so completion order inverts input order.
            out = pool.run(
                [SleepJob(0.3 - 0.05 * i, payload=i) for i in range(6)]
            )
        assert [o.value for o in out] == list(range(6))

    def test_worker_crash_fails_only_its_task(self, start_method):
        with WorkerPool(workers=2, start_method=start_method) as pool:
            tasks = [_EchoJob(0), CrashJob(), _EchoJob(2), _EchoJob(3)]
            out = pool.run(tasks)
        assert [o.ok for o in out] == [True, False, True, True]
        assert "crashed" in out[1].failure
        assert "exit code 13" in out[1].failure
        assert [o.value for o in out if o.ok] == [0, 2, 3]

    def test_timeout_fails_only_the_slow_task(self, start_method):
        with WorkerPool(
            workers=2, task_timeout=1.0, start_method=start_method
        ) as pool:
            tasks = [
                SleepJob(0.05, "a"),
                SleepJob(30.0, "slow"),
                SleepJob(0.05, "c"),
            ]
            out = pool.run(tasks)
        assert out[0].ok and out[2].ok
        assert not out[1].ok
        assert "timed out" in out[1].failure

    def test_exception_reported_with_type(self):
        with WorkerPool(workers=2) as pool:
            out = pool.run([_RaisingJob(), _EchoJob(1)])
        assert not out[0].ok
        assert "ValueError" in out[0].failure
        assert out[1].ok

    def test_multiple_crashes_do_not_sink_the_batch(self):
        with WorkerPool(workers=2) as pool:
            tasks = [
                CrashJob(), _EchoJob(1), CrashJob(), _EchoJob(3), CrashJob()
            ]
            out = pool.run(tasks)
        assert [o.ok for o in out] == [False, True, False, True, False]
        assert [o.value for o in out if o.ok] == [1, 3]

    def test_single_task_no_timeout_runs_inline(self):
        # Without a timeout there is nothing the pool could enforce that
        # the inline path cannot, so a one-task batch skips the spawn.
        out = WorkerPool(workers=4).run([_EchoJob("only")])
        assert out[0].value == "only"

    def test_single_task_timeout_is_enforced(self):
        # Regression: single-task batches used to fall through to the
        # serial path even with workers > 1, silently dropping the
        # task_timeout — a hung 2EXPTIME check then hung the caller.
        with WorkerPool(workers=2, task_timeout=0.5) as pool:
            start = time.monotonic()
            out = pool.run([SleepJob(30.0, "never")])
            elapsed = time.monotonic() - start
        assert not out[0].ok
        assert "timed out" in out[0].failure
        assert elapsed < 10.0

    def test_single_task_crash_isolated_when_timeout_set(self):
        # Companion regression: with a timeout configured, a batch of one
        # also keeps crash isolation (the serial path would have taken
        # the whole process down with the job).
        with WorkerPool(workers=2, task_timeout=30.0) as pool:
            out = pool.run([CrashJob()])
        assert not out[0].ok
        assert "crashed" in out[0].failure

    def test_durations_recorded(self):
        with WorkerPool(workers=2) as pool:
            out = pool.run([SleepJob(0.1, 1), SleepJob(0.1, 2)])
        assert all(o.duration >= 0.09 for o in out)


class TestPersistentSubmission:
    def test_submit_returns_immediately(self):
        with WorkerPool(workers=2) as pool:
            start = time.monotonic()
            ticket = pool.submit(SleepJob(0.5, "late"))
            assert time.monotonic() - start < 0.3
            assert not ticket.done()
            assert ticket.wait(10).value == "late"
            assert ticket.done()

    def test_workers_survive_between_submissions(self, start_method):
        with WorkerPool(workers=2, start_method=start_method) as pool:
            first = {pool.submit(_PidJob()).wait(30).value for _ in range(2)}
            time.sleep(0.1)
            second = {pool.submit(_PidJob()).wait(30).value for _ in range(2)}
        assert first & second, "warm workers should be reused, not respawned"

    def test_serial_submit_is_asynchronous(self):
        # workers=1 still gives async submission: tasks run on the pool's
        # serial coordinator thread, in this process, in FIFO order.
        with WorkerPool(workers=1) as pool:
            tickets = [pool.submit(SleepJob(0.05, i)) for i in range(3)]
            assert [t.wait(10).value for t in tickets] == [0, 1, 2]

    def test_cancel_pending_task(self):
        with WorkerPool(workers=1) as pool:
            blocker = pool.submit(SleepJob(0.4, "blocker"))
            doomed = pool.submit(SleepJob(30.0, "doomed"))
            assert pool.cancel(doomed)
            assert doomed.done()
            assert doomed.outcome.failure == CANCELLED
            assert blocker.wait(10).value == "blocker"

    def test_cancel_completed_task_fails(self):
        with WorkerPool(workers=1) as pool:
            ticket = pool.submit(_EchoJob("x"))
            ticket.wait(10)
            assert not pool.cancel(ticket)

    def test_done_callback_fires(self):
        fired = []
        with WorkerPool(workers=1) as pool:
            ticket = pool.submit(_EchoJob("x"))
            ticket.wait(10)
            ticket.add_done_callback(lambda t: fired.append(t.outcome.value))
            assert fired == ["x"]  # already-done tickets fire immediately
            t2 = pool.submit(SleepJob(0.1, "y"))
            t2.add_done_callback(lambda t: fired.append(t.outcome.value))
            t2.wait(10)
        assert fired == ["x", "y"]

    def test_close_fails_unfinished_tickets(self):
        pool = WorkerPool(workers=2)
        tickets = [pool.submit(SleepJob(30.0, i)) for i in range(3)]
        pool.close()
        assert all(t.done() for t in tickets)
        assert all(t.outcome.failure in (POOL_CLOSED, CANCELLED) for t in tickets)

    def test_submit_after_close_raises(self):
        pool = WorkerPool(workers=1)
        pool.submit(_EchoJob(1)).wait(10)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(_EchoJob(2))

    def test_run_after_run_reuses_pool_object(self):
        # run() retires idle workers afterwards; the pool object itself
        # stays usable for the next batch.
        pool = WorkerPool(workers=2)
        assert [o.value for o in pool.run([_EchoJob(1), _EchoJob(2)])] == [1, 2]
        assert [o.value for o in pool.run([_EchoJob(3), _EchoJob(4)])] == [3, 4]
        pool.close()


#: Owns a persistent 2-worker pool, prints the worker pids, then idles.
_POOL_OWNER = """
import multiprocessing as mp, sys, time
from repro.engine.jobs import SleepJob
from repro.engine.pool import WorkerPool

pool = WorkerPool(workers=2, start_method=sys.argv[1])
for ticket in [pool.submit(SleepJob(0.2, payload=i)) for i in range(2)]:
    ticket.wait(60)
print(" ".join(str(p.pid) for p in mp.active_children()), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_owner_is_killed(self, start_method):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        owner = subprocess.Popen(
            [sys.executable, "-c", _POOL_OWNER, start_method],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        pids = []
        try:
            ready, _, _ = select.select([owner.stdout], [], [], 60)
            assert ready, "pool owner never reported its workers"
            pids = [int(p) for p in owner.stdout.readline().split()]
            assert len(pids) == 2, pids
            owner.kill()
            owner.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [p for p in pids if _running(p)], "orphaned workers"
        finally:
            if owner.poll() is None:
                owner.kill()
                owner.wait(timeout=10)
            owner.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)


class TestTaskOutcome:
    def test_ok_flag(self):
        assert TaskOutcome(value=1).ok
        assert not TaskOutcome(failure="boom").ok
