"""Deterministic site-shard planning for the crawl stages.

A sharded crawl partitions its domain list into hash-stable buckets
(:func:`repro.runtime.shard_items`): a domain's shard is a pure
function of the domain and the shard count, never of the other
domains.  Each shard is cached independently under a key covering the
world identity *of that shard's domains* (the pristine ecosystem
config plus the domains' evolution token — see
:meth:`repro.web.ecosystem.WorldIndex.cache_world_key`), the crawler
knobs, and the shard's domains with their global schedule slots.

Two consequences fall out of that key shape:

* a study re-run with an unchanged configuration loads every shard
  from disk, and a *partially* invalidated study (one knob of one
  shard's world changed) recrawls only the shards whose keys moved;
* epoch N+1 of a longitudinal run shares keys with epoch N (and with
  the pristine world) for every shard whose domains the evolution
  ledger never touched, so only ledger-dirty shards are recrawled.

Global schedule slots travel with the shard: site start times are
positional in the *full* domain list, so a shard crawled alone must
schedule its sites exactly where the monolithic crawl would have.
That is what makes the N-shard fold byte-identical to the monolith.

Both crawls and every dataset's classification run through one
driver, :func:`run_sharded_stage`; the crawls pass it the study's
executor, classification a serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.runlog.context import RunContext
from repro.runtime import shard_items
from repro.store import stable_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import Executor
    from repro.store import StudyCache

T = TypeVar("T")
R = TypeVar("R")
P = TypeVar("P")
O = TypeVar("O")

__all__ = ["CrawlShard", "plan_crawl_shards", "pending_items",
           "fold_provenance", "run_sharded_stage"]


@dataclass(frozen=True)
class CrawlShard:
    """One bucket of a sharded crawl plan."""

    #: Bucket id in the deterministic partition (not contiguous when
    #: empty buckets were dropped).
    index: int
    #: The shard's domains, in global crawl order.
    domains: tuple[str, ...]
    #: Each domain's slot in the full crawl schedule (empty for
    #: classification shards, which schedule nothing).
    offsets: tuple[int, ...] = ()
    #: Per-shard cache key; ``None`` on uncached runs.
    key: str | None = None
    #: Whether the artefact existed on disk at planning time (item
    #: accounting only; the crawl itself re-checks via ``get``).
    cached: bool = False


def plan_crawl_shards(
    domains: Sequence[str],
    n_shards: int,
    *,
    keyer: Callable[[tuple[str, ...], tuple[int, ...]], str] | None = None,
    contains: Callable[[str], bool] | None = None,
) -> list[CrawlShard]:
    """The shard plan for one crawl stage over ``domains``.

    ``keyer`` maps ``(shard domains, offsets)`` to the shard's cache
    key (omitted on uncached runs, so no hashing happens at all);
    ``contains`` reports whether a key's artefact already exists.
    Empty buckets are dropped: they carry no work and no artefact.
    """
    indexed = list(enumerate(domains))
    buckets = shard_items(indexed, n_shards, key=lambda pair: pair[1])
    plan: list[CrawlShard] = []
    for bucket_id, bucket in enumerate(buckets):
        if not bucket:
            continue
        offsets = tuple(offset for offset, _ in bucket)
        members = tuple(domain for _, domain in bucket)
        key = keyer(members, offsets) if keyer is not None else None
        cached = contains(key) if key is not None and contains else False
        plan.append(CrawlShard(
            index=bucket_id, domains=members, offsets=offsets,
            key=key, cached=cached,
        ))
    return plan


def pending_items(plan: Sequence[CrawlShard]) -> int:
    """Sites the plan will actually crawl (cached shards count zero)."""
    return sum(len(shard.domains) for shard in plan if not shard.cached)


def fold_provenance(
    kind: str, plan: Sequence[CrawlShard], parts: Sequence
) -> str | None:
    """Provenance of a crawl fold over the ``parts`` that exist.

    A 1-shard plan keeps its shard's key; otherwise the included part
    keys hash together, which equals the full-plan hash exactly when
    no shard was quarantined.  ``None`` on uncached runs.
    """
    keys = tuple(part.provenance for part in parts)
    if not keys or None in keys:
        return None
    return keys[0] if len(plan) == 1 else stable_key(f"{kind}-fold", keys)


def run_sharded_stage(
    stage: str,
    kind: str,
    plan: Sequence[CrawlShard],
    fn: Callable[[T], R],
    tasks: Callable[[CrawlShard], list[T]],
    part: Callable[[CrawlShard, list[R]], P],
    fold: Callable[[list[P]], O],
    *,
    executor: "Executor",
    cache: "StudyCache | None",
    runlog: RunContext | None,
    reattempt: Callable[[T, int], T] | None = None,
) -> O:
    """Run one sharded stage: probe, execute, cache, journal, fold.

    ``stage`` names the stage in the run journal, ``kind`` its cache
    namespace.  Each shard of ``plan`` either loads from ``cache``
    under its key or runs ``fn`` over ``tasks(shard)`` through
    ``runlog`` (``reattempt`` rewrites a task for a retry) and becomes
    ``part(shard, results)``.  A quarantined shard contributes no
    part; ``fold`` receives the parts in plan order.  Without a
    ``runlog``, :meth:`RunContext.null` runs each shard as one plain
    ``executor.map_sites``.
    """
    runlog = runlog or RunContext.null()
    parts: list[P] = []
    for shard in plan:
        if shard.key is not None and cache is not None:
            cached = cache.get(kind, shard.key)
            if cached is not None:
                runlog.note_cached(stage, shard)
                parts.append(cached)
                continue
        results = runlog.run_shard(
            stage, shard, fn, tasks(shard), executor=executor,
            reattempt=reattempt,
        )
        if results is None:  # poison quarantine: fold without it
            continue
        built = part(shard, results)
        if shard.key is not None and cache is not None:
            runlog.maybe_rot(stage, shard, cache.put(kind, shard.key, built))
        runlog.finish_shard(stage, shard)
        parts.append(built)
    return fold(parts)
