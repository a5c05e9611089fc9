"""The serve-warm workload: warm studies served by ``repro serve``.

Set-up boots a server on loopback with its default executor and a
fresh cache directory, then fills the cache with five configs
``{"schema": 1, "n_sites": sites, "shards": 8, "seed": s}`` for
``s = seed .. seed + 4``.  The timed phase is a closed loop of one
client walking a rotation of the five configs.  Five configs exceed the
server's four-world cache, so every request regenerates its world: the
same work on every request, and exact counts.  Every other request is
streamed as Server-Sent Events.  The server answers HTTP/1.0 and closes
each connection after its response, so the client opens one connection
per request.  The loop ends on the first rotation boundary after
``seconds``, so every config is asked for equally often.  The client
runs the calibration kernel (see ``common.py``) before each request and
after the last, while the server is idle; set-up is bracketed by kernel
runs the same way.

Every timed response must be a 200 reporting ``"cached": true`` and the
digest of that config's cold-fill response.
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import BENCH_DIR, BenchError, kernel_seconds, scaled, stop_here

#: Configs per rotation, each a study of ``sites`` sites in 8 shards.
N_CONFIGS = 5
SHARDS = 8
#: Per-request socket timeout: far beyond any healthy warm request.
REQUEST_TIMEOUT_S = 120.0


class ServerError(BenchError):
    """The server did not start, or did not stop cleanly."""


class Server:
    """One ``serve_launcher.py`` process and its boot time."""

    def __init__(self, cache_dir: Path, report: Path, env: dict,
                 *, trace: bool = False, spans: Path | None = None) -> None:
        command = [
            sys.executable, str(BENCH_DIR / "serve_launcher.py"),
            "--report", str(report), "--trace", str(int(trace)),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--", "--host", "127.0.0.1", "--port", "0",
                    "--cache-dir", str(cache_dir)]
        self.report = report
        self.port: int | None = None
        self._ready = threading.Event()
        started = time.perf_counter()
        self._process = subprocess.Popen(
            command, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        # Drain stderr for the whole life of the server: it logs every
        # request, and a full pipe would block it.
        self._drain = threading.Thread(target=self._read_stderr, daemon=True)
        self._drain.start()
        if not self._ready.wait(timeout=60.0) or self.port is None:
            self.stop()
            raise ServerError("server did not report a listening port")
        self.boot_s = self._ready_at - started

    def _read_stderr(self) -> None:
        marker = "listening on http://"
        for line in self._process.stderr:
            if self.port is None and marker in line:
                address = line.split(marker, 1)[1].split()[0]
                self.port = int(address.rsplit(":", 1)[1])
                self._ready_at = time.perf_counter()
                self._ready.set()
        self._ready.set()

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and return the launcher report."""
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
        try:
            rc = self._process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
            raise ServerError("server did not stop within 60 s") from None
        self._drain.join(timeout=10.0)
        if rc != 0:
            raise ServerError(f"server exited with code {rc}")
        with self.report.open() as stream:
            return json.load(stream)


@dataclass
class Reply:
    """One request's outcome as the client saw it."""

    status: int
    latency_s: float
    first_event_s: float | None
    payload: dict | None
    error: str | None = None


def request_body(seed: int, sites: int) -> bytes:
    return json.dumps({
        "schema": 1, "n_sites": sites, "shards": SHARDS, "seed": seed,
    }).encode()


def post_study(port: int, body: bytes, *, stream: bool) -> Reply:
    """POST /v1/study; time to last byte (and to first SSE event).

    A transport failure becomes a reply with status 0 and the error, so
    it is counted, never retried.
    """
    headers = {"Content-Type": "application/json"}
    if stream:
        headers["Accept"] = "text/event-stream"
    connection = http.client.HTTPConnection(
        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
    )
    started = time.perf_counter()
    first_event = None
    events: list[tuple[str, str]] = []
    try:
        connection.request("POST", "/v1/study", body, headers)
        response = connection.getresponse()
        if not stream or response.status != 200:
            raw = response.read()
            latency = time.perf_counter() - started
            return Reply(response.status, latency, None, json.loads(raw))
        name = None
        while True:
            line = response.readline()
            if not line:
                break
            if line.startswith(b"event:"):
                if first_event is None:
                    first_event = time.perf_counter() - started
                name = line[6:].strip().decode()
            elif line.startswith(b"data:") and name is not None:
                events.append((name, line[5:].strip().decode()))
                name = None
        latency = time.perf_counter() - started
        terminal = events[-1] if events else ("missing", "{}")
        if terminal[0] != "result":
            return Reply(200, latency, first_event, None,
                         f"stream ended with {terminal[0]!r}: {terminal[1]}")
        return Reply(200, latency, first_event, json.loads(terminal[1]))
    except (OSError, http.client.HTTPException, ValueError) as error:
        return Reply(0, time.perf_counter() - started, first_event, None,
                     f"{type(error).__name__}: {error}")
    finally:
        connection.close()


@dataclass
class LoopResult:
    #: ``(request index, config, reply)``.
    replies: list[tuple[int, int, Reply]] = field(default_factory=list)
    #: Kernel runs before the first request and after each request.
    kernels_s: list[float] = field(default_factory=list)
    duration_s: float = 0.0


def closed_loop(port: int, bodies: list[bytes], seconds: float) -> LoopResult:
    """One client walks the rotation for ``seconds``.

    The loop ends at the first rotation boundary after the deadline.
    """
    result = LoopResult(kernels_s=[kernel_seconds()])
    begin = time.perf_counter()
    index = 0
    while not (index % N_CONFIGS == 0 and index and stop_here(begin, seconds)):
        config = index % N_CONFIGS
        reply = post_study(port, bodies[config], stream=index % 2 == 1)
        result.replies.append((index, config, reply))
        result.kernels_s.append(kernel_seconds())
        index += 1
    result.duration_s = time.perf_counter() - begin
    return result


def check(config: int, reply: Reply, digests: list[str]) -> str | None:
    """Why a timed reply is wrong, or ``None`` when it is right."""
    if reply.error is not None:
        return reply.error
    if reply.status != 200:
        return f"HTTP {reply.status}: {reply.payload}"
    if reply.payload.get("cached") is not True:
        return f"config {config}: response not served from cache"
    if reply.payload.get("digest") != digests[config]:
        return (f"config {config}: digest {reply.payload.get('digest')} "
                f"!= cold fill {digests[config]}")
    return None


def run(*, seed: int, seconds: float, trace: bool, sites: int,
        work_dir: Path, env: dict, spans: Path | None) -> dict:
    """One serve-warm run; returns the raw measurements."""
    cache_dir = work_dir / "cache"
    bodies = [request_body(seed + offset, sites) for offset in range(N_CONFIGS)]
    errors: list[str] = []

    # Set-up: boot three times (the last server stays up), then fill.
    # The kernel runs before each boot and before the fill; the loop's
    # first kernel run follows the fill.
    boots, kernels = [], []
    n_boots = 1 if trace else 3
    for attempt in range(n_boots):
        kernels.append(kernel_seconds())
        server = Server(cache_dir, work_dir / f"boot-{attempt}.json", env)
        boots.append(server.boot_s)
        if attempt < n_boots - 1:
            server.stop()
    try:
        kernels.append(kernel_seconds())
        fill_started = time.perf_counter()
        digests = []
        for config, body in enumerate(bodies):
            reply = post_study(server.port, body, stream=False)
            if reply.status != 200 or reply.payload.get("cached") is not False:
                raise ServerError(
                    f"cold fill of config {config} failed: HTTP "
                    f"{reply.status}, {reply.error or reply.payload}"
                )
            digests.append(reply.payload["digest"])
        fill_s = time.perf_counter() - fill_started
        loop = closed_loop(server.port, bodies, seconds)
    finally:
        report = server.stop()
    outcome = {
        "boots_s": boots,
        "boot_kernels_s": kernels,
        "fill_s": fill_s,
        "fill_kernels_s": [kernels[-1], loop.kernels_s[0]],
        "digests": digests,
        "peak_rss_kb": report["peak_rss_kb"],
        "loop": _summarize(loop, digests, errors),
        "errors": errors,
    }
    if trace:
        # The traced phase: a traced server on the now-warm cache.
        server = Server(cache_dir, work_dir / "traced.json", env,
                        trace=True, spans=spans)
        try:
            traced_loop = closed_loop(server.port, bodies, seconds)
        finally:
            report = server.stop()
        outcome["traced_loop"] = _summarize(traced_loop, digests, errors)
        outcome["trace"] = report
    return outcome


def _summarize(loop: LoopResult, digests: list[str], errors: list[str]) -> dict:
    latencies, walls, first_events, stages = [], [], [], {}
    rejected = failed = 0
    scaled_latencies = scaled(
        [reply.latency_s for _, _, reply in loop.replies], loop.kernels_s
    )
    for (index, config, reply), latency in zip(loop.replies, scaled_latencies):
        problem = check(config, reply, digests)
        if problem is not None:
            failed += 1
            errors.append(problem)
        if reply.status in (429, 503):
            rejected += 1
        if reply.payload is not None:
            for stage in reply.payload.get("stages", []):
                stages[stage["name"]] = (
                    stages.get(stage["name"], 0.0) + stage["seconds"]
                )
        # The first request is the first warm one the server sees: it is
        # checked, but not timed.
        if index == 0:
            continue
        latencies.append(latency)
        walls.append(reply.latency_s)
        if reply.first_event_s is not None:
            first_events.append(reply.first_event_s)
    return {
        "attempted": len(loop.replies),
        "failed": failed,
        "rejected": rejected,
        "duration_s": loop.duration_s,
        "latency_total_s": sum(reply.latency_s for _, _, reply in loop.replies),
        "latencies_s": latencies,
        "walls_s": walls,
        "kernels_s": loop.kernels_s,
        "first_events_s": first_events,
        "stages_s": stages,
    }
