"""Pluggable executors for per-site fan-out.

The contract of :meth:`Executor.map_sites` is deliberately narrow:

* ``fn`` is a pure function of one item (for :class:`ProcessExecutor`
  it must be picklable, i.e. defined at module level);
* results come back **in input order**, regardless of which worker
  finished first;
* an empty item list yields an empty result list;
* exceptions raised by ``fn`` propagate to the caller.

Those four properties are what let the crawl stages swap executors
without changing a single byte of study output.
"""

from __future__ import annotations

import math
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import (
    FIRST_EXCEPTION,
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "Executor",
    "SerialExecutor",
    "TaskTimeoutError",
    "ThreadExecutor",
    "ProcessExecutor",
    "chunk_items",
    "make_executor",
    "parse_executor_spec",
    "shard_items",
]


class TaskTimeoutError(TimeoutError):
    """The pool made no progress for a full watchdog window.

    Raised by pool executors constructed with a ``task_timeout``: when
    an entire window elapses without a single new chunk completing, the
    map is presumed wedged (a hung worker, a deadlocked page load), the
    pool is discarded, and this error surfaces.  It subclasses
    ``TimeoutError`` so the run layer classifies it as transient and
    retries the shard against a fresh pool.
    """


def default_workers() -> int:
    """A sensible worker count for this machine."""
    return max(2, min(8, os.cpu_count() or 2))


def chunk_items(items: Sequence[T], chunk_size: int) -> list[list[T]]:
    """Split ``items`` into ordered chunks of at most ``chunk_size``.

    A ``chunk_size`` larger than the input yields a single chunk; an
    empty input yields no chunks at all.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    return [
        list(items[start:start + chunk_size])
        for start in range(0, len(items), chunk_size)
    ]


def shard_items(
    items: Sequence[T],
    n_shards: int,
    *,
    key: Callable[[T], object] = lambda item: item,
) -> list[list[T]]:
    """Partition ``items`` into ``n_shards`` deterministic buckets.

    An item's bucket is a pure function of ``key(item)`` and
    ``n_shards`` — not of the other items, their order, or the process
    — so shard membership is stable across runs and across studies
    that share sites.  That stability is what lets per-shard cache
    entries survive from one study (or evolution epoch) to the next.
    Within a bucket, items keep their input order; empty buckets are
    returned as empty lists so indices always line up with shard ids.
    """
    from repro.util.rng import stable_hash

    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    buckets: list[list[T]] = [[] for _ in range(n_shards)]
    for item in items:
        buckets[stable_hash("shard", key(item)) % n_shards].append(item)
    return buckets


def _run_chunk(fn: Callable[[T], R], chunk: list[T]) -> list[R]:
    """Apply ``fn`` to one chunk (executes inside a worker)."""
    return [fn(item) for item in chunk]


class Executor(ABC):
    """Maps a function over independent per-site work items."""

    name: str = "abstract"
    #: No-progress watchdog window in seconds; only pool executors arm one.
    task_timeout: float | None = None

    @abstractmethod
    def map_sites(
        self, fn: Callable[[T], R], items: Sequence[T],
        *, chunk_size: int | None = None,
    ) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order."""

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Runs everything inline on the calling thread (the baseline)."""

    name = "serial"

    def map_sites(
        self, fn: Callable[[T], R], items: Sequence[T],
        *, chunk_size: int | None = None,
    ) -> list[R]:
        return [fn(item) for item in items]


class _PoolExecutor(Executor):
    """Shared chunk-submission logic for the pool-backed executors.

    One instance may be shared by concurrent callers (the serve layer
    runs many requests through one executor).  Each ``map_sites``
    *leases* the pool under a lock: the pool plus a generation counter.
    A caller that finds its pool broken (or wedged past the watchdog)
    retires **its own generation only** — if another caller already
    rebuilt, the fresh pool and the futures riding on it are left
    untouched, so a failure in one request can never silently drop a
    concurrent request's work.
    """

    def __init__(self, max_workers: int | None = None,
                 chunk_size: int | None = None,
                 task_timeout: float | None = None) -> None:
        if max_workers is not None and max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        _check_task_timeout(task_timeout)
        self.max_workers = max_workers if max_workers is not None \
            else default_workers()
        self.chunk_size = chunk_size
        #: Watchdog window in seconds: a map_sites that completes no new
        #: chunk for one full window raises TaskTimeoutError.  None (the
        #: default) waits forever — the exact pre-watchdog behaviour.
        self.task_timeout = task_timeout
        # thread-safe: _pool/_generation are only read or swapped inside
        # ``with self._pool_lock`` (see _lease/_retire/close); pool
        # shutdown itself happens outside the lock so a slow teardown
        # never blocks concurrent leases.
        self._pool = None
        self._generation = 0
        self._pool_lock = threading.Lock()

    def _make_pool(self):
        raise NotImplementedError

    def _lease(self):
        """Borrow the current pool, creating one if needed.

        Returns ``(pool, generation)``.  The generation ties the lease
        to one concrete pool instance: a caller may only retire the
        generation it leased, never whatever pool happens to be
        installed at failure time.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
                self._generation += 1
            return self._pool, self._generation

    def _retire(self, generation: int, pool) -> None:
        """Discard a leased pool after a failure, if still installed.

        If another caller already retired this generation (and possibly
        rebuilt), the executor's current pool is left alone; only the
        failed lease's own pool is shut down either way, with pending
        work cancelled.
        """
        with self._pool_lock:
            if self._generation == generation and self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def _effective_chunk_size(self, n_items: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        # ~4 chunks per worker balances scheduling slack against
        # per-chunk submission overhead.
        return max(1, math.ceil(n_items / (self.max_workers * 4)))

    def map_sites(
        self, fn: Callable[[T], R], items: Sequence[T],
        *, chunk_size: int | None = None,
    ) -> list[R]:
        items = list(items)
        if not items:
            return []
        size = chunk_size if chunk_size is not None else (
            self._effective_chunk_size(len(items))
        )
        chunks = chunk_items(items, size)
        pool, generation = self._lease()
        futures: list = []
        try:
            futures.extend(
                pool.submit(_run_chunk, fn, chunk) for chunk in chunks
            )
            # Block until everything finished OR any chunk raised —
            # not merely until the *input-order-first* chunk resolved,
            # which would let a failure in a late chunk keep the whole
            # queue churning behind a slow early chunk.
            self._wait_for_progress(futures, pool, generation)
            failed = next(
                (
                    future for future in futures
                    if future.done() and not future.cancelled()
                    and future.exception() is not None
                ),
                None,
            )
            if failed is None:
                return [
                    result for future in futures for result in future.result()
                ]
            # A failing chunk dooms the whole map: cancel everything
            # still queued so workers stop burning through chunks whose
            # results can never be used, then surface the original
            # error — fn's own exception, input-order-first among the
            # failures observed when the wait woke up.  (Which failure
            # that is can depend on scheduling when several chunks
            # fail; fail-fast cancellation and a fully deterministic
            # choice are mutually exclusive, and callers abort on any
            # of them.)
            for pending in futures:
                pending.cancel()
            failed.result()  # re-raises fn's exception with its chain
            raise AssertionError("unreachable: failed future had no error")
        except BrokenExecutor:
            # The pool itself died (worker killed, unpicklable error in
            # a spawned process, ...): retire *this lease's* pool so the
            # next map_sites starts from a fresh, working one.  A
            # concurrent caller that already rebuilt keeps its new pool
            # — the old close()-on-failure path would have destroyed it
            # and silently dropped that caller's futures.
            for pending in futures:
                pending.cancel()
            self._retire(generation, pool)
            raise

    def _wait_for_progress(self, futures: list, pool, generation: int) -> None:
        """``wait(FIRST_EXCEPTION)``, optionally under the watchdog.

        With a ``task_timeout``, waits in windows of that many seconds;
        a window in which **no** additional chunk completed (two for a
        map whose very first chunks hang) discards the pool and raises
        :class:`TaskTimeoutError`.  Progress-based rather than
        per-chunk-deadline, so slow-but-moving maps never trip it.
        """
        if self.task_timeout is None:
            wait(futures, return_when=FIRST_EXCEPTION)
            return
        completed = -1
        while True:
            done, not_done = wait(
                futures, timeout=self.task_timeout,
                return_when=FIRST_EXCEPTION,
            )
            if not not_done:
                return
            if any(
                future.done() and not future.cancelled()
                and future.exception() is not None
                for future in done
            ):
                return  # the FIRST_EXCEPTION path: let the caller scan
            if len(done) == completed:
                for pending in futures:
                    pending.cancel()
                self._retire(generation, pool)
                raise TaskTimeoutError(
                    f"no task progress for {self.task_timeout} s "
                    f"({len(not_done)} chunk(s) outstanding)"
                )
            completed = len(done)

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


class ThreadExecutor(_PoolExecutor):
    """Thread-pool execution.

    Python-level work stays GIL-bound, so this mostly helps stages that
    release the GIL; it is also the cheapest way to exercise scheduling
    nondeterminism in the determinism suite.
    """

    name = "thread"

    def _make_pool(self):
        return ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-site"
        )


class ProcessExecutor(_PoolExecutor):
    """Process-pool execution with chunked site batches.

    Workers are forked where the platform allows it, so the parent's
    ecosystem cache (see :mod:`repro.runtime.worker`), which a crawl
    fills before its tasks fan out, is inherited for free; under
    spawn/forkserver each worker regenerates the world
    deterministically from its config on first use.
    """

    name = "process"

    def _make_pool(self):
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(
            max_workers=self.max_workers, mp_context=context
        )


_EXECUTORS: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}


def _check_task_timeout(task_timeout: float | None) -> None:
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be positive, got {task_timeout}")


def parse_executor_spec(
    spec: str, workers: int | None = None
) -> tuple[type[Executor], int | None]:
    """The executor class and worker count a spec string names.

    Accepts ``"serial"``, ``"thread"``, ``"process"``, optionally with a
    worker count suffix (``"thread:8"``) that overrides ``workers``.
    Raises :class:`ValueError` on a bad spec and constructs nothing, so
    validating a config costs no pool.
    """
    name, _, suffix = spec.partition(":")
    name = name.strip().lower()
    if name not in _EXECUTORS:
        raise ValueError(
            f"unknown executor {spec!r}; expected one of {sorted(_EXECUTORS)}"
        )
    if suffix:
        try:
            workers = int(suffix)
        except ValueError:
            raise ValueError(f"bad worker count in executor spec {spec!r}")
        if workers <= 0:
            raise ValueError(f"worker count must be positive in {spec!r}")
    elif workers is not None and workers <= 0:
        raise ValueError(f"worker count must be positive, got {workers}")
    return _EXECUTORS[name], workers


def make_executor(
    spec: str = "serial",
    workers: int | None = None,
    *, task_timeout: float | None = None,
) -> Executor:
    """Build an executor from a spec string (see :func:`parse_executor_spec`).

    ``task_timeout`` arms the pool executors' no-progress watchdog.
    Serial runs ignore it (inline work cannot be watched from the thread
    doing it), but a non-positive value is rejected for every spec
    alike.
    """
    _check_task_timeout(task_timeout)
    cls, workers = parse_executor_spec(spec, workers)
    if cls is SerialExecutor:
        return SerialExecutor()
    return cls(max_workers=workers, task_timeout=task_timeout)
