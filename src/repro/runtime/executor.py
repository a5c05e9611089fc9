"""Pluggable executors for per-site fan-out.

The primitive is :meth:`Executor.stream`: it takes *batches* — a
worker function and its items, one batch per shard — and yields each
batch as it lands (:class:`Landed`: its results, or the exception
that failed it).  Within a batch the contract is deliberately narrow:

* ``fn`` is a pure function of one item (for :class:`ProcessExecutor`
  it must be picklable, i.e. defined at module level);
* results come back **in input order**, regardless of which worker
  finished first;
* an empty batch lands with an empty result list;
* an exception raised by ``fn`` fails its batch and lands as the
  batch's ``error``; the other batches run on.

Batches land in completion order, which the caller must not let reach
its output: the shard scheduler (:mod:`repro.crawl.shards`) folds in
plan order.  :meth:`Executor.map_sites` is the one-batch call that
raises the exception instead.  Those properties are what let the crawl
stages swap executors without changing a single byte of study output.
"""

from __future__ import annotations

import math
import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "Executor",
    "Landed",
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


#: One batch handed to :meth:`Executor.stream`: a worker and its items.
Batch = tuple[Callable[[T], R], Sequence[T]]


@dataclass
class Landed:
    """One batch of :meth:`Executor.stream`, landed."""

    #: The batch's position in the submitted sequence.
    index: int
    #: Its results in input order (``None`` when it failed).
    results: list | None = None
    #: The exception that failed it (``None`` when it succeeded).
    error: Exception | None = None

    def result(self) -> list:
        """The results; raises the batch's own exception if it failed."""
        if self.error is not None:
            raise self.error
        return self.results


class Executor(ABC):
    """Maps functions over independent per-site work items."""

    name: str = "abstract"
    #: No-progress watchdog window in seconds; only pool executors arm one.
    task_timeout: float | None = None

    @abstractmethod
    def stream(
        self, batches: Sequence[Batch], *, chunk_size: int | None = None,
    ) -> Iterator[Landed]:
        """Run every batch; yield each one as it lands.

        A :class:`Landed` batch carries its results in input order, or
        the exception that failed it.  Every batch lands exactly once,
        in completion order.  Closing the generator early cancels every
        batch that has not landed yet.
        """

    def map_sites(
        self, fn: Callable[[T], R], items: Sequence[T],
        *, chunk_size: int | None = None,
    ) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order.

        One batch through :meth:`stream`; ``fn``'s exception is raised.
        """
        with closing(self.stream([(fn, items)], chunk_size=chunk_size)) as stream:
            (landed,) = stream
        return landed.result()

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Runs everything inline on the calling thread (the baseline).

    A batch runs when the consumer asks for the next one, so batches
    land in submission order.
    """

    name = "serial"

    def stream(
        self, batches: Sequence[Batch], *, chunk_size: int | None = None,
    ) -> Iterator[Landed]:
        for index, (fn, items) in enumerate(batches):
            landed = Landed(index)
            try:
                landed.results = [fn(item) for item in items]
            except Exception as error:
                landed.error = error
            yield landed

    # Bound on the class itself: benchmark tracers wrap it per class.
    map_sites = Executor.map_sites


class _PoolExecutor(Executor):
    """Shared chunk-submission logic for the pool-backed executors.

    One instance may be shared by concurrent callers (the serve layer
    runs many requests through one executor).  Each ``stream``
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
        #: Watchdog window in seconds: a stream during which the pool
        #: completes no chunk for one full window fails its outstanding
        #: batches with TaskTimeoutError.  None (the default) waits
        #: forever.
        self.task_timeout = task_timeout
        # thread-safe: _pool/_generation are only read or swapped inside
        # ``with self._pool_lock`` (see _lease/_retire/close); pool
        # shutdown itself happens outside the lock so a slow teardown
        # never blocks concurrent leases.
        self._pool = None
        self._generation = 0
        self._pool_lock = threading.Lock()
        # thread-safe: bumped by future callbacks (pool threads) under
        # its own lock; the watchdog only compares two reads.
        self._chunks_done = 0
        self._progress_lock = threading.Lock()

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

    def _chunk_done(self, _future) -> None:
        with self._progress_lock:
            self._chunks_done += 1

    def stream(
        self, batches: Sequence[Batch], *, chunk_size: int | None = None,
    ) -> Iterator[Landed]:
        """Submit every batch's chunks at once; yield batches as they land.

        A chunk that raises fails its batch at once: the batch's other
        chunks are cancelled and the rest of the stream runs on.  A
        broken pool (a worker died) is retired and fails every batch
        still in flight; so does the watchdog, when the pool completes
        no chunk for a whole ``task_timeout`` window (two before this
        stream's first chunk lands).
        """
        pool, generation = self._lease()
        #: Batch index -> its chunk futures, for batches not landed yet.
        waiting: dict[int, list] = {}
        owner: dict = {}
        try:
            try:
                for index, (fn, items) in enumerate(batches):
                    items = list(items)
                    size = chunk_size if chunk_size is not None else (
                        self._effective_chunk_size(len(items))
                    )
                    futures = waiting[index] = []
                    for chunk in chunk_items(items, size):
                        future = pool.submit(_run_chunk, fn, chunk)
                        future.add_done_callback(self._chunk_done)
                        futures.append(future)
                        owner[future] = index
            except BrokenExecutor as error:
                # The pool was dead before this stream could use it.
                self._retire(generation, pool)
                waiting.clear()
                for index in range(len(batches)):
                    yield Landed(index, error=error)
                return
            for index in [index for index, futures in waiting.items()
                          if not futures]:
                del waiting[index]
                yield Landed(index, results=[])
            outstanding = set(owner)
            landed_any = False
            stalled = 0
            progress = self._chunks_done
            while waiting:
                done, outstanding = wait(
                    outstanding, timeout=self.task_timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    if self._chunks_done != progress:
                        progress = self._chunks_done
                        stalled = 0
                        continue
                    stalled += 1
                    if stalled < (1 if landed_any else 2):
                        continue
                    self._retire(generation, pool)
                    error = TaskTimeoutError(
                        f"no task progress for {self.task_timeout} s "
                        f"({len(outstanding)} chunk(s) outstanding)"
                    )
                    for index in list(waiting):
                        del waiting[index]
                        yield Landed(index, error=error)
                    return
                landed_any = True
                stalled = 0
                progress = self._chunks_done
                broken = None
                for index in sorted({owner[future] for future in done}):
                    futures = waiting.get(index)
                    if futures is None:
                        continue  # this batch already failed
                    error = next(
                        (error for error in map(_failure, futures)
                         if error is not None),
                        None,
                    )
                    if isinstance(error, BrokenExecutor):
                        broken = error
                    elif error is not None:
                        del waiting[index]
                        for pending in futures:
                            pending.cancel()
                        outstanding.difference_update(futures)
                        yield Landed(index, error=error)
                    elif all(future.done() for future in futures):
                        del waiting[index]
                        yield Landed(index, results=[
                            result for future in futures
                            for result in future.result()
                        ])
                if broken is not None:
                    # The pool itself died (worker killed, unpicklable
                    # error in a spawned process, ...): every batch on
                    # it is lost.  Retire *this lease's* pool so the
                    # next caller starts from a fresh one; a concurrent
                    # caller that already rebuilt keeps its new pool.
                    self._retire(generation, pool)
                    for index in list(waiting):
                        del waiting[index]
                        yield Landed(index, error=broken)
        finally:
            for futures in waiting.values():
                for pending in futures:
                    pending.cancel()

    # Bound on the class itself: benchmark tracers wrap it per class.
    map_sites = Executor.map_sites

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()


def _failure(future) -> Exception | None:
    """A chunk's exception: ``None`` while it runs or when it succeeded.

    A cancelled chunk fails with :class:`CancelledError`: only a
    retired pool cancels the chunks of a batch still waiting.
    """
    if not future.done():
        return None
    if future.cancelled():
        return CancelledError("chunk cancelled: its pool was retired")
    return future.exception()


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
