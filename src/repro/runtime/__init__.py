"""The execution substrate: pluggable site-parallel executors.

Every stage of the study pipeline that folds over independent sites —
the HTTP Archive crawl, the two Alexa crawls, dataset classification —
is expressed as one call to :meth:`Executor.map_sites`.  Swapping the
executor (serial, thread pool, process pool) changes only wall-clock
time, never results: per-site work is seeded from ``(seed, site)`` so
the outcome is independent of scheduling order, which the determinism
suite locks in with a study digest.

The contract covers study *output* — datasets, records, renders,
digests.  Host-side diagnostic counters on the shared world (e.g.
``OriginServer.requests_served``) are not part of it: process workers
increment their forked copies and thread workers race on them, so they
are only meaningful after single-threaded use.
"""

from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    TaskTimeoutError,
    ThreadExecutor,
    chunk_items,
    make_executor,
    shard_items,
)
from repro.runtime.profile import StageTimings
from repro.runtime.worker import (
    clear_ecosystem_cache,
    ecosystem_for,
    ecosystem_is_cached,
    world_index_for,
    world_index_is_cached,
    world_key,
)

__all__ = [
    "Executor",
    "SerialExecutor",
    "TaskTimeoutError",
    "ThreadExecutor",
    "ProcessExecutor",
    "chunk_items",
    "make_executor",
    "shard_items",
    "StageTimings",
    "clear_ecosystem_cache",
    "ecosystem_for",
    "ecosystem_is_cached",
    "world_index_for",
    "world_index_is_cached",
    "world_key",
]
