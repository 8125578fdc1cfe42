"""Open-loop load against the scenario service (``svc_hot``, ``svc_cold``).

The server runs as ``python -m repro serve`` with CLI defaults except
``--port`` and a fresh ``--cache`` (or, traced, the same through
:mod:`launch_server`).  Load comes from this process: an asyncio
generator issuing requests at Poisson arrival times over at most
``os.cpu_count()`` keep-alive connections.  A request is ``POST /runs``
and then ``GET /runs/{key}`` every ``POLL_S`` until the run is terminal;
every exchange borrows a connection only for its own round trip, so
in-flight runs are not capped by the connection count.

Latency runs from a request's due time to the response that first shows
it terminal.  Refused (429), failed, timed-out and malformed requests
count as failed and take ``REQUEST_TIMEOUT_S`` as their latency, so they
always land in the tail.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import socket
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, child_env, median, percentile, script

#: Poll interval for runs that are not terminal yet.
POLL_S = 0.005
REQUEST_TIMEOUT_S = 30.0
#: Arrival rates (requests/s) per workload.
RATES = {"svc_hot": 200.0, "svc_cold": 10.0}
#: Validity: the generator may run this late at p99 ...
MAX_LATE_P99_MS = 50.0
#: ... the last tenth of requests may be this much slower (median) than
#: the first, plus ``TAIL_SLACK_MS`` of jitter ...
TAIL_FACTOR = 3.0
TAIL_SLACK_MS = 5.0
#: ... and everything must finish within this long after the last arrival.
DRAIN_S = 15.0
START_TIMEOUT_S = 30.0


class InvalidRun(Exception):
    """The load generator could not hold the open loop; nothing is reported."""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Connection:
    """One keep-alive HTTP/1.1 connection (Content-Length bodies only)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def exchange(self, method: str, path: str,
                       body: bytes = b"") -> Tuple[int, bytes]:
        self.writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
            + body)
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        self.writer.close()


class Pool:
    """At most ``size`` connections; an exchange holds one for its trip."""

    def __init__(self, port: int, size: int) -> None:
        self.port = port
        self.size = size
        self.idle: asyncio.Queue = asyncio.Queue()

    async def open(self) -> None:
        for _ in range(self.size):
            self.idle.put_nowait(await Connection.open(self.port))

    async def exchange(self, method: str, path: str,
                       body: bytes = b"") -> Tuple[int, bytes]:
        conn = await self.idle.get()
        try:
            result = await conn.exchange(method, path, body)
        except BaseException:
            # Mid-exchange failure or cancellation: the stream is out of
            # step, so replace the connection.
            conn.close()
            self.idle.put_nowait(await Connection.open(self.port))
            raise
        self.idle.put_nowait(conn)
        return result

    async def get_json(self, path: str) -> Dict[str, Any]:
        status, body = await self.exchange("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        while not self.idle.empty():
            self.idle.get_nowait().close()


class Request:
    __slots__ = ("spec", "due", "late", "latency", "error", "key",
                 "polls", "body")

    def __init__(self, spec: Dict[str, Any], due: float) -> None:
        self.spec = spec
        self.due = due
        self.late = 0.0
        self.latency: Optional[float] = None
        self.error: Optional[str] = None
        self.key: Optional[str] = None
        self.polls = 0
        self.body: Optional[bytes] = None


async def submit_and_wait(pool: Pool, request: Request,
                          origin: float) -> None:
    """One request's life; records its outcome on ``request``."""
    payload = json.dumps(request.spec).encode("utf-8")
    try:
        async with asyncio.timeout(REQUEST_TIMEOUT_S):
            status, body = await pool.exchange("POST", "/runs", payload)
            if status not in (200, 202):
                request.error = f"POST answered {status}"
                return
            view = json.loads(body)
            request.key = view["key"]
            while view["status"] not in ("done", "failed"):
                await asyncio.sleep(POLL_S)
                status, body = await pool.exchange(
                    "GET", f"/runs/{request.key}")
                request.polls += 1
                if status != 200:
                    request.error = f"GET answered {status}"
                    return
                view = json.loads(body)
            finished = perf_counter()
            if view["status"] == "failed":
                request.error = f"run failed: {view.get('error')}"
                return
            request.latency = finished - (origin + request.due)
            if "result" in view:
                request.body = body
    except TimeoutError:
        request.error = "timed out"
    except (OSError, ValueError, KeyError, IndexError,
            asyncio.IncompleteReadError) as error:
        request.error = f"{type(error).__name__}: {error}"


async def _wait_until_up(port: int, proc: subprocess.Popen) -> None:
    deadline = perf_counter() + START_TIMEOUT_S
    while True:
        if proc.poll() is not None:
            raise RuntimeError(f"server exited with {proc.returncode}")
        try:
            conn = await Connection.open(port)
        except OSError:
            if perf_counter() > deadline:
                raise RuntimeError("server did not start") from None
            await asyncio.sleep(0.01)
            continue
        try:
            status, _ = await conn.exchange("GET", "/stats")
        finally:
            conn.close()
        if status == 200:
            return


class Server:
    """One server process and its connection pool."""

    def __init__(self, work: Path, index: int,
                 trace_dir: Optional[Path]) -> None:
        self.port = free_port()
        cache = work / f"cache-{index}"
        serve_args = ["serve", "--port", str(self.port), "--cache", str(cache)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            command = [*script("launch_server.py"), str(trace_dir),
                       *serve_args]
        self.log = open(work / f"server-{index}.log", "wb")
        self.started = perf_counter()
        self.proc = subprocess.Popen(command, env=child_env(), cwd=ROOT,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.pool = Pool(self.port, os.cpu_count() or 1)

    async def start(self, warm: List[Dict[str, Any]]) -> float:
        """Wait for ``/stats``, run each warm spec alone; returns set-up s."""
        await _wait_until_up(self.port, self.proc)
        await self.pool.open()
        for spec in warm:
            request = Request(spec, 0.0)
            await submit_and_wait(self.pool, request, perf_counter())
            if request.error is not None:
                raise RuntimeError(f"warm-up request failed: {request.error}")
        return perf_counter() - self.started

    def stop(self) -> None:
        self.pool.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def arrivals(rng: random.Random, rate: float, seconds: float) -> List[float]:
    """A Poisson process of ``rate`` on [0, seconds), given its count.

    Conditioning on ``round(rate * seconds)`` arrivals (uniform order
    statistics) keeps the offered load identical across seeds while the
    gaps stay exponential.
    """
    return sorted(rng.uniform(0.0, seconds)
                  for _ in range(round(rate * seconds)))


async def open_loop(server: Server, specs: List[Dict[str, Any]],
                    dues: List[float]) -> Tuple[List[Request], float, float]:
    """Issue every request at its due time; returns them and the window.

    The generator's own garbage collector is paused for the window so its
    pauses do not show up as service latency.
    """
    requests = [Request(spec, due) for spec, due in zip(specs, dues)]
    gc.collect()
    gc.disable()
    try:
        return await _issue(server, requests)
    finally:
        gc.enable()


async def _issue(server: Server, requests: List[Request]
                 ) -> Tuple[List[Request], float, float]:
    tasks = []
    origin = perf_counter() + 0.05
    for request in requests:
        delay = origin + request.due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        request.late = perf_counter() - (origin + request.due)
        tasks.append(asyncio.create_task(
            submit_and_wait(server.pool, request, origin)))
    done, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)
    for task in done:
        task.result()
    if pending:
        raise InvalidRun(f"{len(pending)} request(s) still open {DRAIN_S} s "
                         "after the last arrival: the backlog grew")
    return requests, origin, perf_counter()


def check_health(requests: List[Request], stats: Dict[str, Any]) -> None:
    """Raise :class:`InvalidRun` if the open loop did not hold."""
    late_p99_ms = percentile([r.late for r in requests], 99) * 1e3
    if late_p99_ms > MAX_LATE_P99_MS:
        raise InvalidRun(f"generator ran {late_p99_ms:.1f} ms late at p99 "
                         f"(limit {MAX_LATE_P99_MS} ms)")
    if stats["queue_depth"] or stats["in_flight"]:
        raise InvalidRun("server queue not empty after the run")
    tenth = max(1, len(requests) // 10)
    head = median([latency(r) for r in requests[:tenth]]) * 1e3
    tail = median([latency(r) for r in requests[-tenth:]]) * 1e3
    if tail > TAIL_FACTOR * head + TAIL_SLACK_MS:
        raise InvalidRun(f"last tenth ran at {tail:.1f} ms median against "
                         f"{head:.1f} ms for the first: the backlog grew")


def latency(request: Request) -> float:
    return (request.latency if request.latency is not None
            else REQUEST_TIMEOUT_S)


async def run(workload: str, seed: int, seconds: float, work: Path,
              setups: int, trace_dir: Optional[Path],
              warm: List[Dict[str, Any]],
              make_specs) -> Dict[str, Any]:
    """Set up ``setups`` servers, load the last one, collect everything."""
    servers: List[Server] = []
    setup_s: List[float] = []
    try:
        for index in range(setups):
            if servers:
                servers[-1].stop()
            servers.append(Server(work, index, trace_dir))
            setup_s.append(await servers[-1].start(warm))
        server = servers[-1]
        rng = random.Random(seed)
        dues = arrivals(rng, RATES[workload], seconds)
        specs = make_specs(rng, len(dues))
        before = await server.pool.get_json("/stats")
        requests, window_start, window_end = await open_loop(
            server, specs, dues)
        after = await server.pool.get_json("/stats")
        check_health(requests, after)
        # Correctness material, fetched after the timed phase: the result
        # of every distinct key that was answered without one.
        results: Dict[str, bytes] = {
            r.key: r.body for r in requests if r.body is not None}
        for key in sorted({r.key for r in requests if r.key} - set(results)):
            status, body = await server.pool.exchange("GET", f"/runs/{key}")
            if status == 200:
                results[key] = body
    finally:
        for server in servers:
            server.stop()
    return {"setup_s": setup_s, "requests": requests, "results": results,
            "stats": (before, after), "window": (window_start, window_end)}
