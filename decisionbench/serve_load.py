"""The serve layer: ``repro serve`` under an open-loop sender.

Part of the traced ``engine_repeat`` run.  A ``repro serve`` subprocess
with the engine workload's stores and workers gets the first 1000
questions of the same repeat stream at a fixed rate from one sender
process.  Each request is timed from the moment it was *due*, so a
stall also charges the requests queued behind it; completion is
observed on the job's SSE stream, never by polling.

The open-loop end-to-end workload this layer was built for
(``serve_open``) is not part of the benchmark: on the 2-core machine it
was measured on, its p90 and p99 moved by 45-55% between runs, more
than any allowed bound.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

from . import checks, corpus
from .workloads import (
    REQUEST_DEADLINE_S,
    TASK_TIMEOUT_S,
    is_miss,
    percentile,
    scratch_dir,
)

WORKERS = 2
RATE = 60
REQUESTS = 1000


def _serve_args(directory: Path) -> List[str]:
    return [
        "--port", "0", "--workers", str(WORKERS), "--timeout", str(TASK_TIMEOUT_S),
        "--cache-dir", str(directory / "cache"),
        "--catalog", str(directory / "catalog.sqlite"),
        "--witness-store", str(directory / "witness.sqlite"),
        "--drain-grace", "5",
    ]


class Server:
    """A ``repro serve`` child process on a free port."""

    def __init__(self, directory: Path, root: Path) -> None:
        self.log_path = directory / "serve.log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", *_serve_args(directory)],
                stdout=log, stderr=subprocess.STDOUT, cwd=str(root))
        self.port = 0

    def wait_ready(self) -> None:
        """Block until the server listens and answers ``/healthz``."""
        self.port = self._wait_port()
        self._wait_healthy()

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self.log_path.read_text()[-2000:]}")
            text = self.log_path.read_text(errors="replace")
            marker = text.find("listening on ")
            if marker >= 0:
                address = text[marker:].split()[2]
                return int(address.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise RuntimeError("repro serve did not report a port")

    def request(self, path: str) -> Tuple[int, dict]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            connection.request("GET", path, headers={"Accept": "application/json"})
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"{}")
        finally:
            connection.close()

    def _wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.request("/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("repro serve never became healthy")

    def stop(self) -> None:
        """SIGTERM (drain), then wait."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _documents(questions) -> List[bytes]:
    """The request bodies, encoded before the sender starts."""
    from repro.core.serialize import omq_to_document

    deadline_ms = int(REQUEST_DEADLINE_S * 1000)
    return [json.dumps({"q1": omq_to_document(q.q1), "q2": omq_to_document(q.q2),
                        "deadline_ms": deadline_ms}).encode()
            for q in questions]


async def _submit(port: int, body: bytes) -> dict:
    """POST /v1/jobs, reading the reply by its Content-Length.

    Not to EOF: pool workers that ``repro serve`` forks while a connection
    is open inherit its socket, so that connection sees no EOF until the
    worker exits.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            b"POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            b"Connection: close\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body))
        await writer.drain()
        head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = next(int(line.split(":", 1)[1]) for line in head
                      if line.lower().startswith("content-length:"))
        doc = json.loads(await reader.readexactly(length))
    finally:
        writer.close()
    if status >= 300:
        raise RuntimeError(f"HTTP {status}: {doc}")
    return doc


async def _send(client, port: int, body: bytes, due: float, loop) -> dict:
    delay = due - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
    sent = loop.time()
    out = {"due": due, "sent": sent, "inline": False, "job": None, "error": None}
    try:
        job = await _submit(port, body)
        out["inline"] = job.get("state") == "done"
        if not out["inline"]:
            async for event, frame in client.stream(job["id"]):
                if event == "result":
                    job = frame
        out["job"] = job
    except Exception as exc:  # a refused or dropped request is a failure
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["done"] = loop.time()
    return out


async def _open_loop(port: int, documents: List[bytes]) -> List[dict]:
    from repro.serve.client import AsyncServeClient

    client = AsyncServeClient("127.0.0.1", port)
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.05
    tasks = [loop.create_task(_send(client, port, body, start + i / RATE, loop))
             for i, body in enumerate(documents)]
    return list(await asyncio.gather(*tasks))


def serve_layer_metrics(seed: int, root: Path, references: List[object]) -> Tuple[Dict[str, float], List[str]]:
    """The ``serve.*`` per-layer metrics and any served verdict that fails
    the checks (against bare ``contains()`` on the base question)."""
    from repro.core.serialize import containment_result_from_json

    stream = corpus.repeat_stream(seed)
    questions = stream.questions[:REQUESTS]
    directory = scratch_dir(root)
    server = Server(directory, root)
    try:
        documents = _documents(questions)
        server.wait_ready()
        sent = asyncio.run(_open_loop(server.port, documents))
        metrics = server.request("/metrics")[1].get("metrics", {})
    finally:
        server.stop()
        shutil.rmtree(directory, ignore_errors=True)
    problems = []
    for position, (question, s) in enumerate(zip(questions, sent)):
        job = s["job"] or {}
        error = s["error"] or job.get("error")
        if error and not is_miss(error):
            problems.append(f"served question {position} ({question.origin}): {error}")
        elif job.get("result") and not error:
            reference = references[question.base] if question.base is not None else None
            problem = checks.verdict_problem(
                question, containment_result_from_json(job["result"]), reference)
            if problem:
                problems.append(f"served question {position} ({question.origin}): {problem}")
    timer = metrics.get("serve.http.request_time") or {}
    transport = [(s["done"] - s["sent"]) * 1000.0 - float(s["job"].get("duration_ms") or 0.0)
                 for s in sent if s["job"]]
    return {
        "serve.http.request_time_ms": float(timer.get("mean_s", 0.0)) * 1000.0,
        "serve.transport_ms": statistics.median(transport) if transport else 0.0,
        "serve.inline_share": sum(1 for s in sent if s["inline"]) / len(sent),
        "serve.sender_late_ms": percentile([(s["sent"] - s["due"]) * 1000.0 for s in sent], 99),
    }, problems
