"""Span tracing for the benchmark's traced runs.

The tracer wraps public functions of the ``repro`` layers from the
outside: nothing under ``src/`` changes, and :meth:`Tracer.restore`
puts every original back.  Each call into a wrapped function records a
span — name, start, end, parent span and operation id — in per-thread
buffers kept in memory and written out once, when the run ends.  A
span's self time is its duration minus the part its child spans cover.

Methods are wrapped on their class.  Module-level functions are wrapped
on their defining module *and* on every ``repro`` module that bound the
name with ``from ... import``, so no caller slips past.

A few wrappers also count work the spans alone cannot show (HPACK
bytes, HAR entries, cache hits, ...).  Counters live in the same
per-thread buffers, so concurrent server threads never race on them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Callable

__all__ = ["GROUPS", "TARGETS", "Tracer", "load_spans"]


def _netlog_events(counts: dict, args, kwargs, visit) -> None:
    netlog = getattr(visit, "netlog", None)
    if netlog is not None:
        counts["netlog.events"] = counts.get("netlog.events", 0) + len(netlog)


def _pool_decision(counts: dict, args, kwargs, decision) -> None:
    counts["browser.pool.created"] = (
        counts.get("browser.pool.created", 0) + int(decision.created)
    )
    counts["browser.pool.coalesced"] = (
        counts.get("browser.pool.coalesced", 0) + int(decision.coalesced)
    )


def _hpack_bytes(counts: dict, args, kwargs, block) -> None:
    counts["h2.hpack_bytes"] = counts.get("h2.hpack_bytes", 0) + len(block)


def _har_entries(counts: dict, args, kwargs, har) -> None:
    counts["har.entries"] = counts.get("har.entries", 0) + len(har.entries)


def _map_items(counts: dict, args, kwargs, results) -> None:
    # map_sites returns one result per item, in input order.
    counts["runtime.map_sites.items"] = (
        counts.get("runtime.map_sites.items", 0) + len(results)
    )


def _store_hit(counts: dict, args, kwargs, artefact) -> None:
    if artefact is not None:
        counts["store.get.hits"] = counts.get("store.get.hits", 0) + 1


def _store_bytes(counts: dict, args, kwargs, path) -> None:
    counts["store.put.bytes"] = (
        counts.get("store.put.bytes", 0) + path.stat().st_size
    )


#: ``(span, module, attribute, counter hook)`` for every wrapped
#: function.  ``attribute`` is ``Class.method`` or a module function.
#: Hooks run after the span closes, so their cost is not charged to it.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("web.generate", "repro.web.ecosystem", "Ecosystem.generate", None),
    ("browser.visit", "repro.browser.browser", "ChromiumBrowser.visit",
     _netlog_events),
    ("browser.load", "repro.browser.loader", "PageLoader.load", None),
    ("browser.pool.get_connection", "repro.browser.pool",
     "ConnectionPool.get_connection", _pool_decision),
    ("h2.perform_request", "repro.h2.connection",
     "Http2Connection.perform_request", None),
    ("h2.hpack_encode", "repro.h2.hpack", "HpackEncoder.encode",
     _hpack_bytes),
    ("dns.resolve", "repro.dns.resolver", "RecursiveResolver.resolve", None),
    ("tls.verify", "repro.tls.verify", "verify_certificate", None),
    ("tls.verify", "repro.tls.certificate", "Certificate.covers", None),
    ("netlog.parse", "repro.netlog.parser", "parse_sessions", None),
    ("har.write", "repro.har.writer", "write_har", _har_entries),
    ("har.read", "repro.har.reader", "read_sessions", None),
    ("core.classify_site", "repro.core.classifier", "classify_site", None),
    ("crawl.httparchive", "repro.crawl.httparchive",
     "HttpArchiveCrawler.crawl", None),
    ("crawl.alexa", "repro.crawl.alexa", "AlexaCrawler.run", None),
    ("crawl.classify", "repro.crawl.httparchive", "HarCorpus.classify", None),
    ("crawl.classify", "repro.crawl.alexa", "AlexaRun.classify", None),
    ("runtime.map_sites", "repro.runtime.executor",
     "SerialExecutor.map_sites", _map_items),
    ("runtime.map_sites", "repro.runtime.executor",
     "_PoolExecutor.map_sites", _map_items),
    ("store.get", "repro.store.cache", "StudyCache.get", _store_hit),
    ("store.put", "repro.store.cache", "StudyCache.put", _store_bytes),
    ("runlog.append", "repro.runlog.journal", "RunJournal.append", None),
    ("analysis.digest", "repro.analysis.digest", "study_digest", None),
    ("analysis.summarize", "repro.sweep.runner", "summarize_cell", None),
    ("serve.run_study", "repro.serve.service", "StudyService.run_study",
     None),
)

#: Layers by the process that runs them.  ``protocol`` is the per-site
#: measurement path, which process executors run in forked workers;
#: ``pipeline`` runs in the study's own process; ``serve`` in a server.
GROUPS: dict[str, tuple[str, ...]] = {
    "protocol": ("browser", "h2", "dns", "tls", "netlog", "har", "core"),
    "pipeline": ("web", "crawl", "runtime", "store", "runlog", "analysis"),
    "serve": ("serve",),
}

#: Modules imported before wrapping, so every ``from ... import``
#: binding of a wrapped function already exists and gets wrapped too.
_CALLER_MODULES = (
    "repro.cli",
    "repro.analysis.study",
    "repro.analysis.internal",
    "repro.analysis.longitudinal",
    "repro.perfbench.pipeline",
    "repro.serve.service",
    "repro.sweep.runner",
)


class _Buffer:
    """One thread's spans and counters."""

    __slots__ = ("thread", "name", "start", "end", "parent", "op",
                 "stack", "current_op", "counts")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: dict[str, int] = {}


class Tracer:
    """Wraps layer functions and records their spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_op = 0
        #: ``(owner, attribute, original)`` for every installed patch.
        self._patches: list[tuple[object, str, object]] = []
        #: ``id(wrapper) -> (wrapper, original)``.
        self._originals: dict[int, tuple[Callable, Callable]] = {}

    # ------------------------------------------------------------------
    # Recording.

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = _Buffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buffer)
            self._local.buffer = buffer
            return buffer

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _new_op(self) -> int:
        with self._lock:
            op = self._next_op
            self._next_op += 1
        return op

    def _wrap(self, fn: Callable, name: str, hook: Callable | None,
              root: bool) -> Callable:
        name_id = self._name_id(name)
        buffer_of = self._buffer
        new_op = self._new_op
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = buffer_of()
            outer_op = buffer.current_op
            if root:
                buffer.current_op = new_op()
            index = len(buffer.name)
            buffer.name.append(name_id)
            buffer.parent.append(buffer.stack[-1] if buffer.stack else -1)
            buffer.op.append(buffer.current_op)
            buffer.end.append(0.0)
            buffer.stack.append(index)
            buffer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.end[index] = clock()
                buffer.stack.pop()
                buffer.current_op = outer_op
            if hook is not None:
                hook(buffer.counts, args, kwargs, result)
            return result

        self._originals[id(traced)] = (traced, fn)
        return traced

    def operation(self, fn: Callable[[], object], name: str = "op"):
        """Call ``fn`` as one operation: a root span with a new op id."""
        return self._wrap(fn, name, None, root=True)()

    # ------------------------------------------------------------------
    # Installing and removing the wrappers.

    def install(self, groups: tuple[str, ...]) -> None:
        """Wrap every target whose layer belongs to one of ``groups``."""
        layers = {layer for group in groups for layer in GROUPS[group]}
        for module_name in _CALLER_MODULES:
            importlib.import_module(module_name)
        for span, module_name, attribute, hook in TARGETS:
            if span.split(".", 1)[0] not in layers:
                continue
            module = importlib.import_module(module_name)
            root = span == "serve.run_study"
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(module, class_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(
                        self._wrap(raw.__func__, span, hook, root)
                    )
                else:
                    wrapped = self._wrap(raw, span, hook, root)
                self._patch(cls, method, raw, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(original, span, hook, root)
            for caller in _repro_modules():
                for bound, value in list(vars(caller).items()):
                    if value is original:
                        self._patch(caller, bound, original, wrapped)

    def _patch(self, owner, attribute: str, original, wrapped) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapped)

    def restore(self) -> None:
        """Put every original back, including bindings made later."""
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        for module in _repro_modules():
            for bound, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, bound, entry[1])

    # ------------------------------------------------------------------
    # Reading the record.

    def counts(self) -> dict[str, int]:
        """Calls per span name plus every counter, summed over threads."""
        totals: dict[str, int] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            for name_id in buffer.name:
                key = f"{self.names[name_id]}.calls"
                totals[key] = totals.get(key, 0) + 1
            for key, value in buffer.counts.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def times(self) -> dict[str, tuple[float, float]]:
        """``{span: (self seconds, wall seconds)}`` over all threads."""
        totals: dict[str, list[float]] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            n = len(buffer.name)
            covered = [0.0] * n
            start, end, parent = buffer.start, buffer.end, buffer.parent
            for index in range(n):
                up = parent[index]
                if up >= 0:
                    covered[up] += end[index] - start[index]
            for index in range(n):
                duration = end[index] - start[index]
                entry = totals.setdefault(
                    self.names[buffer.name[index]], [0.0, 0.0]
                )
                entry[0] += duration - covered[index]
                entry[1] += duration
        return {name: (own, wall) for name, (own, wall) in totals.items()}

    def span_count(self) -> int:
        with self._lock:
            return sum(len(buffer.name) for buffer in self._buffers)

    def write_spans(self, path: Path) -> Path:
        """Write every span: a JSON header line, then raw arrays.

        Per thread the header lists the span count; the body holds, per
        thread in header order, the ``name`` (int32 index into
        ``names``), ``start`` and ``end`` (float64 perf-counter
        seconds), ``parent`` (int32 index within the thread, -1 for a
        root) and ``op`` (int32 operation id, -1 outside operations)
        arrays, each in native byte order.
        """
        with self._lock:
            buffers = list(self._buffers)
        header = {
            "schema": 1,
            "byteorder": sys.byteorder,
            "names": self.names,
            "arrays": ["name:i", "start:d", "end:d", "parent:i", "op:i"],
            "threads": [
                {"thread": buffer.thread, "spans": len(buffer.name)}
                for buffer in buffers
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(f".{path.name}.tmp")
        with temp.open("wb") as stream:
            stream.write(json.dumps(header).encode() + b"\n")
            for buffer in buffers:
                for column in (buffer.name, buffer.start, buffer.end,
                               buffer.parent, buffer.op):
                    column.tofile(stream)
        temp.replace(path)
        return path


def load_spans(path: Path) -> tuple[list[str], list[dict[str, array]]]:
    """Read a file written by :meth:`Tracer.write_spans`.

    Returns ``(names, threads)`` where each thread is a dict of the five
    arrays.
    """
    with path.open("rb") as stream:
        header = json.loads(stream.readline())
        threads = []
        for thread in header["threads"]:
            columns = {}
            for spec in header["arrays"]:
                column_name, typecode = spec.split(":")
                column = array(typecode)
                column.fromfile(stream, thread["spans"])
                if header["byteorder"] != sys.byteorder:
                    column.byteswap()
                columns[column_name] = column
            threads.append(columns)
    return header["names"], threads


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
