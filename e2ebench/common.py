"""Shared pieces of the end-to-end benchmark.

Metric tables, the host-speed calibration kernel, order statistics,
the atomic JSON writer and the cross-run ledger.  Everything here is stdlib-only and imports nothing
from ``repro``, so the client side of the benchmark (``run.py`` and the
serve client) stays independent of the program it measures.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import tempfile
import time
from pathlib import Path

#: Schema version of every JSON document the benchmark writes.
SCHEMA = 1

#: The benchmark's own directory and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Where runs leave their results, ledgers, traces and scratch state
#: (ignored by git; created on demand).
STATE_DIR = ROOT / ".e2ebench"

WORKLOADS = ("stress-serial", "stress-sharded", "serve-warm")


class BenchError(RuntimeError):
    """A run that could not measure at all (not a failed check)."""

#: End-to-end metrics: name -> unit.  Every workload reports each one
#: on untraced runs (``--trace 0``).
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "sites_per_s": "sites/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Spans whose call counts and self times the traced run reports.
_CALLS_AND_SELF = (
    "web.generate",
    "browser.visit",
    "browser.pool.get_connection",
    "h2.perform_request",
    "h2.hpack_encode",
    "dns.resolve",
    "tls.verify",
    "netlog.parse",
    "har.write",
    "har.read",
    "core.classify_site",
    "store.get",
    "store.put",
    "runlog.append",
)
#: Spans whose self time alone is reported.
_SELF_ONLY = (
    "browser.load",
    "crawl.httparchive",
    "crawl.alexa",
    "crawl.classify",
    "analysis.digest",
    "analysis.summarize",
    "serve.run_study",
)
#: Counters the layer wrappers accumulate (see ``tracer.py``).
COUNTERS: dict[str, str] = {
    "browser.pool.created": "count/op",
    "browser.pool.coalesced": "count/op",
    "h2.hpack_bytes": "B/op",
    "netlog.events": "count/op",
    "har.entries": "count/op",
    "runtime.map_sites.items": "count/op",
    "store.get.hits": "count/op",
    "store.put.bytes": "B/op",
}
#: Pipeline stages read from the public ``StageTimings``.
STAGES = (
    "generate-ecosystem",
    "crawl-httparchive",
    "crawl-alexa-fetch",
    "crawl-alexa-nofetch",
    "classify-datasets",
    "overlap",
)


def _per_layer() -> dict[str, str]:
    metrics: dict[str, str] = {}
    for span in _CALLS_AND_SELF:
        metrics[f"{span}.calls"] = "count/op"
        metrics[f"{span}.self_s"] = "s/op"
    for span in _SELF_ONLY:
        metrics[f"{span}.self_s"] = "s/op"
    metrics["runtime.map_sites.calls"] = "count/op"
    metrics["runtime.map_sites.wall_s"] = "s/op"
    metrics.update(COUNTERS)
    for stage in STAGES:
        metrics[f"stage.{stage}_s"] = "s/op"
    metrics["serve.http_s"] = "s/op"
    metrics["serve.rejected"] = "count/op"
    metrics["first_event_p50_s"] = "s"
    metrics["trace.overhead_ratio"] = "ratio"
    return metrics


#: Per-layer metrics: name -> unit.  Every workload reports each one on
#: traced runs (``--trace 1``); values are per operation (one study, or
#: one served request) unless the unit says otherwise.
PER_LAYER: dict[str, str] = _per_layer()

#: Per-layer metrics that count work.  They must repeat exactly across
#: traced runs of one workload at one seed.  Two counts are left out:
#: ``serve.rejected`` counts refusals, not work, and ``store.put.bytes``
#: is the size of pickles, whose encoding varies by a few bytes with
#: string-hash order and with which objects memoised helpers share.
EXACT_COUNTS = tuple(
    name for name, unit in PER_LAYER.items()
    if unit in ("count/op", "B/op")
    and name not in ("serve.rejected", "store.put.bytes")
)


#: Host-speed calibration.  The benchmark shares a few cores of a busy
#: host whose speed drifts by a third for tens of seconds at a time,
#: far more than any bound could absorb.  So the timed loops run a fixed
#: pure-Python kernel (string building, dict inserts, a keyed sort and
#: an MD5, like the program's own mix) before each operation and after
#: the last, always in the benchmark's own small process (``run.py``),
#: and every reported time is scaled to a host on which the kernel takes
#: ``REFERENCE_KERNEL_S``: a time from a slow stretch is scaled down as
#: much as the kernels around it ran slow.  The host's CPUs drift
#: apart as much as together, so one kernel measurement runs on each CPU
#: this process may use in turn, pinned there, and averages the CPUs;
#: on each it takes the median of ``KERNEL_REPEATS`` short runs, which
#: shrugs off sub-second stalls.  The reference is the median of 109
#: such measurements on the 2-vCPU VM (Xeon, python 3.11) the benchmark
#: was defined on, so there scaled times read as typical wall seconds.
#: Raw wall times are recorded beside them.
KERNEL_ROUNDS = 2
KERNEL_REPEATS = 3
REFERENCE_KERNEL_S = 0.048


def _kernel_once() -> float:
    started = time.perf_counter()
    total = 0
    for round_ in range(KERNEL_ROUNDS):
        table = {}
        for i in range(20_000):
            key = f"host{i % 997}.example{round_}.com/{i}"
            table[key] = (i, key.upper(), [i, round_])
        keys = sorted(table, key=lambda k: table[k][0] ^ 0x5BD1)
        digest = hashlib.md5("".join(keys[:2000]).encode()).hexdigest()
        total += len(keys) + int(digest[:4], 16)
    if total <= 0:
        raise AssertionError("calibration kernel computed nothing")
    return time.perf_counter() - started


def kernel_seconds() -> float:
    """One kernel measurement: the mean over CPUs of each one's median.

    The collector is off while the kernel runs: a collection walks the
    whole heap, which would tie the kernel's time to the caller's heap.
    Only the calling thread is pinned, and its affinity is restored.
    """
    cpus = os.sched_getaffinity(0)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(
                median([_kernel_once() for _ in range(KERNEL_REPEATS)])
            )
    finally:
        os.sched_setaffinity(0, cpus)
        if was_enabled:
            gc.enable()
    return sum(per_cpu) / len(per_cpu)


def scaled(times: list[float], kernels: list[float]) -> list[float]:
    """``times`` on the reference host.

    ``kernels[i]`` and ``kernels[i + 1]`` are the kernel runs just
    before and just after ``times[i]``.  The host's speed during that
    operation is the mean of the four kernel runs nearest it, two on
    each side (fewer at the ends): one run is a noisy reading, and the
    host drifts over tens of seconds, not from one operation to the next.
    """
    if len(kernels) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} kernels")
    result = []
    for i, value in enumerate(times):
        near = kernels[max(0, i - 1):i + 3]
        result.append(value * REFERENCE_KERNEL_S * len(near) / sum(near))
    return result


def stop_here(begin: float, seconds: float) -> bool:
    """Whether a closed loop begun at ``begin`` stops at this boundary.

    A loop runs whole rounds and stops at the first round boundary at
    or after ``seconds``, so the last round may overrun the deadline.
    """
    return time.perf_counter() - begin >= seconds


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` of the latency tail.

    The tail is the highest percentile with at least ten samples beyond
    it.  Up to twenty samples that percentile would not lie above the
    median; the upper quartile (interpolated between the samples around
    it) stands in, because a higher percentile of so few samples rests
    on one or two of them and varies too much from run to run.
    """
    if not values:
        raise ValueError("tail of no values")
    ordered = sorted(values)
    n = len(ordered)
    if n > 20:
        # The k-th smallest value has n - k samples beyond it.
        k = n - 10
        return ordered[k - 1], 100.0 * k / n, n - k
    position = 0.75 * (n - 1)
    low = int(position)
    high = min(low + 1, n - 1)
    value = ordered[low] + (ordered[high] - ordered[low]) * (position - low)
    return value, 75.0, sum(1 for sample in ordered if sample > value)


def write_json_atomic(path: Path, payload: dict) -> Path:
    """Write ``payload`` to ``path`` via a temp file and a rename.

    Creates the parent directory; a crash mid-write leaves either the
    old file or the new one, never a torn mix.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(payload, stream, indent=1, sort_keys=True)
            stream.write("\n")
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except FileNotFoundError:
            pass
        raise
    return path


def read_json(path: Path) -> dict | None:
    try:
        with path.open() as stream:
            return json.load(stream)
    except FileNotFoundError:
        return None


def ledger_check(name: str, value: dict, state_dir: Path = STATE_DIR) -> str | None:
    """Compare ``value`` with what an earlier run recorded under ``name``.

    The first run to reach ``name`` records ``value``; every later run
    must reproduce it exactly.  ``name`` may contain ``/`` to group
    entries.  Returns a description of the mismatch,
    or ``None`` when the values agree (or this run is the first).
    """
    path = state_dir / "ledger" / f"{name}.json"
    recorded = read_json(path)
    if recorded is None:
        write_json_atomic(path, {"schema": SCHEMA, "value": value})
        return None
    previous = recorded.get("value")
    if previous == value:
        return None
    if isinstance(previous, dict):
        differing = [
            key for key in sorted(set(previous) | set(value))
            if previous.get(key) != value.get(key)
        ]
        return f"{name}: differs from the recorded run in {differing}"
    return f"{name}: recorded {previous!r}, this run {value!r}"


def program_fingerprint(root: Path = ROOT) -> str:
    """A hash of the program's sources, which keys the ledger.

    Runs of different code may legitimately do different work, so each
    version of ``src/repro`` gets a ledger of its own.
    """
    digest = hashlib.sha256()
    package = root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return value
