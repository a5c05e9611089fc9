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

Every sharded stage — a crawl, or one dataset's classification — is a
:class:`ShardStage`, and one scheduler, :func:`run_stages`, runs any
set of them: it loads the cached shards in plan order, submits every
other shard to the executor's stream at once
(:meth:`repro.runtime.Executor.stream`), and settles each shard as its
batch lands, in completion order.  A study hands it its three crawls
and classifies each crawl shard in its own process as the shard lands
(see :mod:`repro.analysis.study`); a standalone crawl is a one-stage
run, and classification runs its stage on a serial executor.  Parts
come back in plan order, so completion order never reaches an output.
A study marks a cached crawl shard ``lazy`` when every classify node
it feeds is cached too; the scheduler then leaves it on disk until
something reads the crawl.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.runlog.context import RunContext
from repro.runtime import shard_items
from repro.store import stable_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime import Executor
    from repro.store import StudyCache

__all__ = ["CrawlShard", "ON_DISK", "ShardStage", "plan_crawl_shards",
           "pending_items", "fold_provenance", "run_stages"]


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
    #: Whether nothing downstream needs the shard's contents during the
    #: run: :func:`run_stages` journals it as cached and lands
    #: :data:`ON_DISK` instead of loading it.
    lazy: bool = False


class _OnDisk:
    """The type of :data:`ON_DISK`."""

    def __repr__(self) -> str:
        return "ON_DISK"


#: The part :func:`run_stages` lands for a lazy shard: cached, not loaded.
ON_DISK = _OnDisk()


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


@dataclass(frozen=True)
class ShardStage:
    """One sharded stage: a crawl, or one dataset's classification."""

    #: The stage's name in the run journal.
    name: str
    #: Cache namespace of its shard artefacts.
    kind: str
    plan: Sequence[CrawlShard]
    #: The per-item worker, run by the executor over ``tasks(shard)``.
    fn: Callable[[Any], Any]
    tasks: Callable[[CrawlShard], list]
    #: A shard's part, from the shard and its results in task order.
    part: Callable[[CrawlShard, list], Any]
    #: Rewrites a task for retry attempt ``n``; ``None`` reuses it.
    reattempt: Callable[[Any, int], Any] | None = None


def run_stages(
    stages: Sequence[ShardStage],
    *,
    executor: "Executor",
    cache: "StudyCache | None",
    runlog: RunContext | None = None,
    on_land: Callable[[int, CrawlShard, Any], None] | None = None,
) -> list[list]:
    """Run the shards of ``stages`` as one stream; their parts by stage.

    Each shard first tries ``cache`` under its key, in plan order; a
    ``lazy`` shard is journalled as cached without being loaded.
    Every shard that misses is journalled as started and submitted to
    ``executor`` at once, stage by stage except that stages sharing a
    ``kind`` (sibling crawls of one partition) interleave shard by
    shard.  As a shard's batch lands, ``runlog`` settles it (retrying
    or quarantining a failed one), its part is built, cached and
    journalled finished.  ``on_land(stage index, shard, part)`` then
    sees it — and sees a cached shard as it loads — with ``None`` for
    a quarantined shard and :data:`ON_DISK` for a lazy one.

    Returns each stage's parts in plan order, ``None`` where a shard
    was quarantined and :data:`ON_DISK` where it is lazy.  Any
    exception closes the stream, which cancels every batch still
    outstanding, before it propagates.  Without a ``runlog`` the
    stages run under a fresh :meth:`RunContext.null`, which journals
    nothing and raises a failed batch's own error.
    """
    runlog = runlog or RunContext.null()
    parts: list[list] = [[None] * len(stage.plan) for stage in stages]

    def land(index: int, position: int, part) -> None:
        parts[index][position] = part
        if on_land is not None:
            on_land(index, stages[index].plan[position], part)

    pending: list[tuple[int, int]] = []
    for index, stage in enumerate(stages):
        for position, shard in enumerate(stage.plan):
            if shard.lazy:
                runlog.note_cached(stage.name, shard)
                land(index, position, ON_DISK)
                continue
            if shard.key is not None and cache is not None:
                cached = cache.get(stage.kind, shard.key)
                if cached is not None:
                    runlog.note_cached(stage.name, shard)
                    land(index, position, cached)
                    continue
            pending.append((index, position))
    kinds = list(dict.fromkeys(stage.kind for stage in stages))
    pending.sort(key=lambda node: (
        kinds.index(stages[node[0]].kind), node[1], node[0]
    ))
    tasks = [stages[index].tasks(stages[index].plan[position])
             for index, position in pending]
    for index, position in pending:
        runlog.start_shard(stages[index].name, stages[index].plan[position])
    batches = [
        (stages[index].fn, items)
        for (index, _), items in zip(pending, tasks)
    ]
    with closing(executor.stream(batches)) as stream:
        for landed in stream:
            index, position = pending[landed.index]
            stage = stages[index]
            shard = stage.plan[position]
            results = runlog.settle_shard(
                stage.name, shard, landed, stage.fn, tasks[landed.index],
                executor=executor, reattempt=stage.reattempt,
            )
            if results is None:  # poison quarantine: fold without it
                land(index, position, None)
                continue
            built = stage.part(shard, results)
            if shard.key is not None and cache is not None:
                runlog.maybe_rot(
                    stage.name, shard, cache.put(stage.kind, shard.key, built)
                )
            runlog.finish_shard(stage.name, shard)
            land(index, position, built)
    return parts
