"""The per-process study service behind the HTTP front end.

One :class:`StudyService` owns what every request shares: the
content-addressed :class:`~repro.store.StudyCache`, one pool executor
(admission-controlled, never rebuilt per request), the per-run-id
journal locks, and the drain flag a shutting-down server raises.

Progress streaming piggybacks on instrumentation the pipeline already
has: the :class:`~repro.runtime.StageTimings` observer fires at every
stage boundary (``stage_start``) and the run journal's observer fires
after every durable append — ``shard-skip`` records become
``shard_done result=reused`` events, ``shard-finish`` records become
``shard_done result=recomputed``.  Both observers double as drain
checkpoints: once :meth:`StudyService.drain` is called, the next
checkpoint of every inflight request raises :class:`ServeShutdown`,
which unwinds *after* the journal's fsynced append — so an interrupted
run is exactly as resumable as a Ctrl-C'd CLI run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict
from typing import Callable

from repro.analysis.study import Study, StudyConfig
from repro.runlog import RunContext
from repro.runlog.inspect import list_runs, render_run_detail
from repro.runlog.journal import run_id
from repro.runtime import StageTimings, make_executor
from repro.runtime.gcpause import collector_paused
from repro.serve.schema import SCHEMA_VERSION, StudyRequest, SweepRequest
from repro.store import StudyCache
from repro.sweep.runner import summarize_cell
from repro.sweep.spec import SweepCell

__all__ = ["ServeShutdown", "StudyService"]

#: Stages whose item counts decide the ``"cached"`` flag: a response is
#: cache-served when every one of these that ran recorded zero pending
#: items.  ``generate-ecosystem`` is deliberately excluded — the world
#: memoises in process memory, not in the study cache, so a fresh
#: process's first warm-cache request still counts as cached.
_MEASURED_STAGES = frozenset({
    "crawl-httparchive",
    "crawl-alexa-fetch",
    "crawl-alexa-nofetch",
    "classify-datasets",
})

#: An event callback: ``emit(event_name, payload_dict)``.
Emit = Callable[[str, dict], None]


class ServeShutdown(Exception):
    """Raised inside an inflight request when the service is draining.

    Deliberately *not* a subclass of any pipeline error: the retry
    layer classifies unknown exceptions as fatal and re-raises them
    after journalling, which is exactly the unwind a drain wants.
    """


def _jsonable(value):
    """Dataclass/tuple-free copy of ``value`` for json.dumps."""
    if hasattr(value, "__dataclass_fields__"):
        return _jsonable(asdict(value))
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


class StudyService:
    """Shared state and request execution for ``repro serve``."""

    def __init__(
        self,
        cache_dir: str,
        *,
        executor: str = "thread",
        jobs: int | None = None,
        max_inflight: int = 4,
        task_timeout: float | None = None,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        self.cache = StudyCache(cache_dir)
        self.executor = make_executor(
            executor, jobs, task_timeout=task_timeout
        )
        self.max_inflight = max_inflight
        self._admission = threading.BoundedSemaphore(max_inflight)
        # thread-safe: _inflight/_failures/_run_locks only mutate under
        # _state_lock; _draining is a threading.Event (atomic).
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._failures: dict[str, int] = {}
        self._run_locks: dict[str, threading.Lock] = {}
        self._draining = threading.Event()
        self._idle = threading.Condition(self._state_lock)

    # ------------------------------------------------------------------
    # Admission control and lifecycle.

    def admit(self) -> bool:
        """Try to admit one request; ``False`` means 429 (or draining)."""
        if self._draining.is_set():
            return False
        if not self._admission.acquire(blocking=False):
            return False
        with self._state_lock:
            self._inflight += 1
        return True

    def release(self) -> None:
        """Return one admitted request's slot."""
        with self._state_lock:
            self._inflight -= 1
            self._idle.notify_all()
        self._admission.release()

    @property
    def inflight(self) -> int:
        with self._state_lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> None:
        """Stop admitting; abort inflight runs at their next checkpoint."""
        self._draining.set()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is inflight; ``False`` on timeout."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self) -> None:
        """Release the shared executor (idempotent)."""
        self.executor.close()

    def record_failure(self, kind: str) -> None:
        """Count one failed request for ``healthz`` reporting."""
        with self._state_lock:
            self._failures[kind] = self._failures.get(kind, 0) + 1

    def _run_lock(self, run: str) -> threading.Lock:
        """The journal lock of one run id.

        Two concurrent requests for the *same* configuration share one
        run id, hence one journal file; without this lock both would
        open it for writing and corrupt each other's records.  The
        second request waits, then finds every shard warm in the cache.
        """
        with self._state_lock:
            return self._run_locks.setdefault(run, threading.Lock())

    def _checkpoint(self) -> None:
        if self._draining.is_set():
            raise ServeShutdown("service is draining; run journalled")

    # ------------------------------------------------------------------
    # Request execution.

    def _execute_study(
        self,
        config: StudyConfig,
        *,
        resume: bool,
        emit: Emit | None,
        cell: str | None = None,
    ) -> tuple[Study, StageTimings, str]:
        """One study through the shared executor, streaming progress.

        Returns ``(study, timings, run_id)``; the caller shapes the
        response payload.  ``cell`` labels events of a sweep cell.
        """

        def tag(payload: dict) -> dict:
            if cell is not None:
                payload["cell"] = cell
            return payload

        def on_stage(name: str, items: int | None) -> None:
            self._checkpoint()
            if emit is not None:
                emit("stage_start", tag({"stage": name, "items": items}))

        def on_record(record: dict) -> None:
            self._checkpoint()
            if emit is None:
                return
            event = record.get("event")
            if event == "shard-skip":
                emit("shard_done", tag({
                    "stage": record.get("stage"),
                    "key": record.get("artifact"),
                    "result": "reused",
                    "reason": record.get("reason"),
                }))
            elif event == "shard-finish":
                emit("shard_done", tag({
                    "stage": record.get("stage"),
                    "key": record.get("artifact"),
                    "result": "recomputed",
                }))

        run = run_id(config)
        timings = StageTimings(observer=on_stage)
        with self._run_lock(run):
            runlog = RunContext.for_study(
                config, self.cache, resume=resume, observer=on_record
            )
            try:
                study = Study.run(
                    config, executor=self.executor, timings=timings,
                    cache=self.cache, runlog=runlog,
                )
                study.coverage = runlog.finish()
            finally:
                # No run-finish record on failure: the journal stays
                # resumable, which is what the 503's hint promises.
                runlog.close()
        return study, timings, run

    @staticmethod
    def _is_cached(timings: StageTimings) -> bool:
        measured = [
            stage for stage in timings.stages
            if stage.name in _MEASURED_STAGES
        ]
        return bool(measured) and all(
            stage.items == 0 for stage in measured
        )

    @collector_paused()
    def run_study(self, request: StudyRequest, emit: Emit | None = None) -> dict:
        """Execute one study request; returns the response payload.

        With ``emit``, streams ``stage_start``/``shard_done`` events
        while running and a ``coverage`` event before returning; the
        payload itself becomes the terminal ``result`` event.
        """
        study, timings, run = self._execute_study(
            request.config, resume=request.resume, emit=emit
        )
        cell = SweepCell(config=request.config)
        summary = summarize_cell(cell, study, timings)
        coverage = _jsonable(study.coverage)
        if emit is not None:
            emit("coverage", dict(coverage))
        return {
            "schema": SCHEMA_VERSION,
            "kind": "study",
            "run": run,
            "digest": summary.digest,
            "cached": self._is_cached(timings),
            "coverage": coverage,
            "headline": _jsonable(summary.headline),
            "datasets": _jsonable(summary.datasets),
            "stages": [
                {"name": stage.name, "seconds": stage.seconds,
                 "items": stage.items}
                for stage in timings.stages
            ],
        }

    @collector_paused()
    def run_sweep(self, request: SweepRequest, emit: Emit | None = None) -> dict:
        """Execute one sweep request cell by cell, streaming progress."""
        cells = request.spec.cells()
        results = []
        all_cached = bool(cells)
        for cell in cells:
            study, timings, run = self._execute_study(
                cell.config, resume=request.resume, emit=emit,
                cell=cell.label(),
            )
            summary = summarize_cell(cell, study, timings)
            cached = self._is_cached(timings)
            all_cached = all_cached and cached
            results.append({
                "cell": cell.label(),
                "variant": cell.variant_label(),
                "seed": cell.seed,
                "run": run,
                "digest": summary.digest,
                "cached": cached,
                "coverage": _jsonable(summary.coverage),
                "headline": _jsonable(summary.headline),
                "datasets": _jsonable(summary.datasets),
            })
        payload = {
            "schema": SCHEMA_VERSION,
            "kind": "sweep",
            "n_cells": len(results),
            "cached": all_cached,
            "cells": results,
        }
        if emit is not None:
            emit("coverage", {
                "cells_total": len(results),
                "cells_partial": sum(
                    1 for result in results
                    if result["coverage"] is not None
                    and result["coverage"]["shards_quarantined"] > 0
                ),
            })
        return payload

    # ------------------------------------------------------------------
    # Introspection endpoints.

    def healthz(self) -> dict:
        """The ``GET /v1/healthz`` payload."""
        with self._state_lock:
            inflight = self._inflight
            failures = dict(sorted(self._failures.items()))
        return {
            "schema": SCHEMA_VERSION,
            "status": "draining" if self.draining else "ok",
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            "executor": self.executor.name,
            "failures": failures,
            "cache": self.cache.stats_snapshot(),
            "runs": len(list_runs(self.cache.directory)),
        }

    def runs_payload(self) -> dict:
        """The ``GET /v1/runs`` payload: every readable journal."""
        return {
            "schema": SCHEMA_VERSION,
            "runs": [
                {
                    "run": status.run,
                    "status": status.status,
                    "records": status.records,
                    "shards_finished": status.shards_finished,
                    "shards_quarantined": status.shards_quarantined,
                    "seed": status.seed,
                    "n_sites": status.n_sites,
                    "fault_profile": status.fault_profile,
                }
                for status in list_runs(self.cache.directory)
            ],
        }

    def run_detail_payload(self, prefix: str) -> dict | None:
        """The ``GET /v1/runs/<prefix>`` payload, or ``None`` if no
        unique journal matches."""
        detail = render_run_detail(self.cache.directory, prefix)
        if detail is None:
            return None
        matches = [
            status for status in list_runs(self.cache.directory)
            if status.run.startswith(prefix)
        ]
        status = matches[0]
        return {
            "schema": SCHEMA_VERSION,
            "run": status.run,
            "status": status.status,
            "records": status.records,
            "shards_finished": status.shards_finished,
            "shards_quarantined": status.shards_quarantined,
            "detail": detail,
        }
