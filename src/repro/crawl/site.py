"""The skeleton both crawl harnesses share.

The HTTP Archive crawl and the Alexa runs differ only in what a visit
records (a median-of-three HAR, or one NetLog).  The rest is here once:
the site task, the per-site preamble (:func:`open_site`) and the shard
keys, plans and crawl stage (:class:`SiteCrawler`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, ClassVar

from repro.browser.browser import BrowserConfig, ChromiumBrowser
from repro.crawl.shards import (
    CrawlShard,
    fold_provenance,
    plan_crawl_shards,
    run_sharded_stage,
)
from repro.faults.plan import FaultPlan
from repro.runtime import Executor, SerialExecutor, ecosystem_for
from repro.util.clock import SimClock
from repro.util.rng import RngFactory
from repro.web.ecosystem import EcosystemConfig, WorldIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runlog import RunContext
    from repro.store import StudyCache

__all__ = ["SiteTask", "open_site", "SiteCrawler"]


@dataclass(frozen=True, kw_only=True)
class SiteTask:
    """Everything one worker needs to visit one site in one crawl."""

    ecosystem_config: EcosystemConfig
    seed: int
    domain: str
    start_time: float
    browser: BrowserConfig
    fault_profile: str = "none"
    #: Retry generation (set by the run layer's re-dispatch); feeds
    #: only the attempt-bounded ``worker-crash`` fault, never an RNG
    #: stream, so a task's *output* is attempt-independent.
    attempt: int = 0


def open_site(
    task: SiteTask, *, run: str, resolver: str, rng: RngFactory,
    clock: SimClock,
) -> tuple[ChromiumBrowser, Callable[[], tuple[tuple[str, int], ...]]]:
    """The browser for visiting ``task.domain`` in crawl ``run``.

    The fault plan derives from ``(seed, run, domain)`` like every RNG
    stream, so the same faults strike under any executor; it may crash
    this attempt outright.  Returns the browser and a callable giving
    the fired-fault counts (empty without a fault profile).
    """
    ecosystem = ecosystem_for(task.ecosystem_config)
    plan = FaultPlan.compile(
        task.fault_profile, seed=task.seed, run=run, domain=task.domain
    )
    if plan is not None and plan.task_crash(task.attempt):
        from repro.runlog.errors import WorkerCrashError

        raise WorkerCrashError(
            f"injected worker crash visiting {task.domain} in {run} "
            f"(attempt {task.attempt})"
        )
    site_resolver = ecosystem.make_resolver(resolver)
    if plan is not None:
        site_resolver.faults = plan
    browser = ChromiumBrowser(
        ecosystem=ecosystem, resolver=site_resolver, clock=clock,
        rng=rng.stream("browser"), config=task.browser, faults=plan,
    )
    return browser, plan.counts if plan is not None else tuple


class SiteCrawler:
    """Shard keys, shard plans and the crawl stage of one crawler.

    Subclasses set ``kind``, their cache namespace, and define
    ``shard_key(domains, offsets, *run)``; ``run`` is whatever else
    names one crawl (an :class:`~repro.crawl.alexa.AlexaVariant` for
    Alexa, nothing for the HTTP Archive).

    A crawler keys and plans from its ``world`` index alone.  The full
    world is resolved (see :func:`~repro.runtime.ecosystem_for`) only
    when a shard must actually be crawled.

    A crawl with a ``cache`` loads the shards crawled before under an
    identical configuration and visits only the missing ones; its fold
    over shard parts equals the monolithic crawl for every shard count.
    A ``runlog`` (see :mod:`repro.runlog`) journals every shard, retries
    transient failures and quarantines poisoned shards: the fold then
    proceeds without them, and the study's coverage block owns up to
    the gap.
    """

    kind: ClassVar[str]
    world: WorldIndex

    def stage_key(self, domains: list[str], *run) -> str:
        """The 1-shard (whole-list) ``shard_key`` of ``domains``."""
        return self.shard_key(tuple(domains), tuple(range(len(domains))), *run)

    def plan_shards(
        self, domains: list[str], *run, shards: int = 1,
        cache: "StudyCache | None" = None,
    ) -> list[CrawlShard]:
        """The deterministic shard plan for a crawl over ``domains``.

        Uncached plans skip key hashing entirely.
        """
        if cache is None:
            return plan_crawl_shards(domains, shards)
        return plan_crawl_shards(
            domains, shards,
            keyer=lambda members, offsets: self.shard_key(
                members, offsets, *run
            ),
            contains=lambda key: cache.contains(self.kind, key),
        )

    def _crawl_stage(
        self, stage: str, plan: list[CrawlShard], visit: Callable,
        task: Callable[[str, int], SiteTask], part: Callable, fold: Callable,
        *, executor: Executor | None, cache: "StudyCache | None",
        runlog: "RunContext | None",
    ):
        """Crawl ``plan`` as stage ``stage`` of the shard driver.

        ``visit`` runs in a worker on ``task(domain, schedule slot)``
        for each site (a retry only bumps the task's ``attempt``);
        ``part`` builds a shard's part from its results, and
        ``fold(parts, provenance)`` the crawl's output.
        """

        def tasks(shard: CrawlShard) -> list[SiteTask]:
            # Only a shard that misses the cache gets here: build (or
            # find) the world now, in this process, so serial, thread
            # and forked workers share it.
            ecosystem_for(self.world.config)
            return [
                task(domain, offset)
                for domain, offset in zip(shard.domains, shard.offsets)
            ]

        return run_sharded_stage(
            stage, self.kind, plan, visit, tasks, part,
            lambda parts: fold(parts, fold_provenance(self.kind, plan, parts)),
            executor=executor or SerialExecutor(), cache=cache,
            runlog=runlog,
            reattempt=lambda retried, n: replace(retried, attempt=n),
        )
