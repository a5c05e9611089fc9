"""The HTTP Archive crawl (§4.2.1).

"For every website, the landing page is loaded 3 times and the HAR file
for the median load time is saved."  The crawler reproduces that
pipeline against the synthetic ecosystem from a US vantage point (the
HTTP Archive crawls from US data centres, which is one of the
vantage-point differences the paper discusses in Appendix A.3/A.4),
injecting the §4.3 logging inconsistencies that the reader later
filters.

Sites are crawled independently: each gets its own time slot, browser
and RNG streams derived from ``(seed, domain)``, so the crawl can run
through any :class:`~repro.runtime.Executor` and produce identical
output.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.browser.browser import BrowserConfig, ChromiumBrowser
from repro.crawl.classify import (
    ClassifiedDataset,
    aggregate_classifications,
    merge_classified_datasets,
)
from repro.crawl.shards import (
    CrawlShard,
    fold_provenance,
    plan_crawl_shards,
    run_sharded_stage,
)
from repro.core.classifier import SiteClassification, classify_site
from repro.core.session import LifetimeModel
from repro.faults.plan import FaultPlan
from repro.har.model import HarFile
from repro.har.reader import FilterStats, read_sessions
from repro.har.writer import HarNoiseConfig, write_har
from repro.runtime import Executor, SerialExecutor, ecosystem_for, prime_ecosystem
from repro.store import StudyCache, stable_key
from repro.util.clock import SimClock
from repro.util.rng import RngFactory, stable_hash
from repro.util.scenario import merge_counts
from repro.web.ecosystem import Ecosystem, EcosystemConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runlog import RunContext

__all__ = ["HarCorpus", "HttpArchiveCrawler"]


@dataclass(frozen=True)
class _HaSiteTask:
    """Everything one worker needs to crawl one site."""

    ecosystem_config: EcosystemConfig
    seed: int
    domain: str
    start_time: float
    vantage_country: str
    noise: HarNoiseConfig
    loads_per_site: int
    observe_s: float
    fault_profile: str = "none"
    #: Retry generation (set by the run layer's re-dispatch); feeds
    #: only the attempt-bounded ``worker-crash`` fault, never an RNG
    #: stream, so a task's *output* is attempt-independent.
    attempt: int = 0


def _crawl_one_site(
    task: _HaSiteTask,
) -> tuple[str, HarFile | None, tuple[tuple[str, int], ...]]:
    """Visit one site ``loads_per_site`` times; keep the median HAR.

    Returns ``(domain, median HAR or None, fired-fault counts)``; the
    fault plan — like every RNG stream — derives from the task's
    ``(seed, run, domain)``, so the same faults strike under any
    executor.  One plan spans all three loads of the site.
    """
    ecosystem = ecosystem_for(task.ecosystem_config)
    rng = RngFactory(stable_hash(task.seed, "ha-site", task.domain))
    clock = SimClock(task.start_time)
    plan = FaultPlan.compile(
        task.fault_profile, seed=task.seed, run="httparchive",
        domain=task.domain,
    )
    if plan is not None and plan.task_crash(task.attempt):
        from repro.runlog.errors import WorkerCrashError

        raise WorkerCrashError(
            f"injected worker crash visiting {task.domain} "
            f"(attempt {task.attempt})"
        )
    resolver = ecosystem.make_resolver("httparchive-crux")
    if plan is not None:
        resolver.faults = plan
    browser = ChromiumBrowser(
        ecosystem=ecosystem,
        resolver=resolver,
        clock=clock,
        rng=rng.stream("browser"),
        config=BrowserConfig(
            vantage_country=task.vantage_country, observe_s=task.observe_s
        ),
        faults=plan,
    )
    gap_rng = rng.stream("gaps")
    visits = []
    for _ in range(task.loads_per_site):
        visit = browser.visit(task.domain)
        if visit.unreachable:
            break
        visits.append(visit)
        clock.advance(gap_rng.uniform(1.0, 5.0))
    counts = plan.counts() if plan is not None else ()
    if not visits:
        return task.domain, None, counts
    # Median of three by onLoad time, like the HTTP Archive.
    visits.sort(key=lambda visit: visit.load.load_time)
    median_visit = visits[len(visits) // 2]
    har = write_har(median_visit, noise=task.noise, rng=rng.stream("har-noise"))
    return task.domain, har, counts


def _sanitize_and_classify(
    item: tuple[str, HarFile, str],
) -> tuple[str, SiteClassification, FilterStats]:
    """Worker-side §4.3 sanitisation + §4.1 classification of one HAR."""
    site, har, model_value = item
    result = read_sessions(har)
    classification = classify_site(
        site, result.records, model=LifetimeModel(model_value)
    )
    return site, classification, result.stats


@dataclass
class HarCorpus:
    """The crawl's output: one (median-load) HAR per reachable site."""

    name: str
    hars: dict[str, HarFile] = field(default_factory=dict)
    unreachable: list[str] = field(default_factory=list)
    #: Stable key of the crawl configuration that produced this corpus
    #: (set by the crawler); classification caching derives from it.
    provenance: str | None = None
    #: Total injected-fault strikes across the crawl, by fault kind
    #: (empty without a fault profile); feeds the resilience taxonomy.
    fault_counts: dict[str, int] = field(default_factory=dict)

    def classify_cache_key(
        self, shard: CrawlShard, model: LifetimeModel, name: str
    ) -> str | None:
        """Cache key for classifying one crawl shard, ``None`` uncached."""
        if shard.key is None:
            return None
        return stable_key("classify-har", shard.key, model.value, name)

    def classify_plan(
        self, model: LifetimeModel, name: str | None = None, *,
        crawl_plan: list[CrawlShard] | None = None,
        cache: StudyCache | None = None,
    ) -> list[CrawlShard]:
        """The classification shards of this corpus under ``model``.

        One shard per crawl shard of ``crawl_plan``, over that shard's
        HARs; without a plan, one shard over the whole corpus keyed on
        its provenance.  Keys are hashed only with a ``cache``.
        """
        name = name or f"{self.name}-{model.value}"
        if crawl_plan is None:
            crawl_plan = [CrawlShard(
                index=0, domains=tuple(self.hars), key=self.provenance
            )]
        plan = []
        for shard in crawl_plan:
            members = set(shard.domains)
            key = (
                self.classify_cache_key(shard, model, name)
                if cache is not None else None
            )
            plan.append(CrawlShard(
                index=shard.index,
                domains=tuple(site for site in self.hars if site in members),
                key=key,
                cached=key is not None and cache.contains("classify", key),
            ))
        return plan

    def classify(
        self, *, model: LifetimeModel, asdb=None, name: str | None = None,
        executor: Executor | None = None, cache: StudyCache | None = None,
        plan: list[CrawlShard] | None = None,
        runlog: "RunContext | None" = None,
    ) -> ClassifiedDataset:
        """Sanitize all HARs and classify under ``model``.

        Runs as stage ``classify-<name>`` of the shard driver over
        ``plan`` (default: one shard over the whole corpus, see
        :meth:`classify_plan`).  With a ``cache`` (and a crawler-set
        provenance) each shard's dataset is loaded from / stored to
        disk keyed on the crawl configuration plus the lifetime model;
        a ``runlog`` journals, retries and quarantines the shards like
        the crawls.
        """
        name = name or f"{self.name}-{model.value}"
        if plan is None:
            plan = self.classify_plan(model, name, cache=cache)

        def part(shard: CrawlShard, outcomes: list) -> ClassifiedDataset:
            stats = FilterStats()
            for _, _, site_stats in outcomes:
                stats.merge(site_stats)
            dataset = aggregate_classifications(
                name, model,
                [(site, classification) for site, classification, _ in outcomes],
                asdb=asdb,
            )
            dataset.filter_stats = stats  # type: ignore[attr-defined]
            return dataset

        return run_sharded_stage(
            f"classify-{name}", "classify", plan, _sanitize_and_classify,
            lambda shard: [
                (site, self.hars[site], model.value) for site in shard.domains
            ],
            part,
            lambda parts: merge_classified_datasets(
                name, model, parts, asdb=asdb
            ),
            executor=executor or SerialExecutor(), cache=cache, runlog=runlog,
        )


@dataclass
class HttpArchiveCrawler:
    """Visits sites three times and keeps the median-load HAR."""

    ecosystem: Ecosystem
    seed: int = 11
    vantage_country: str = "US"
    noise: HarNoiseConfig = field(default_factory=HarNoiseConfig)
    start_time: float = 0.0
    loads_per_site: int = 3
    observe_s: float = 300.0
    #: Named fault profile injected into every visit (see
    #: :mod:`repro.faults`); ``"none"`` is provably inert.
    fault_profile: str = "none"

    @property
    def site_slot_s(self) -> float:
        """Simulated time reserved per site (visits + inter-load gaps)."""
        return self.loads_per_site * (self.observe_s + 5.0) + 10.0

    def shard_key(
        self, domains: tuple[str, ...], offsets: tuple[int, ...]
    ) -> str:
        """Stable cache key of one crawl shard.

        Covers every knob the shard's output depends on: the world
        identity *of these domains* (pristine ecosystem config plus
        their evolution token — worlds whose churn never touched them
        share keys), the crawl seed, vantage point, noise model,
        schedule knobs, and the shard's domains with their global
        schedule slots.
        """
        return stable_key(
            "har-crawl",
            *self.ecosystem.cache_world_key(domains),
            self.seed,
            self.vantage_country,
            self.noise,
            self.start_time,
            self.loads_per_site,
            self.observe_s,
            self.fault_profile,
            domains,
            offsets,
        )

    def stage_key(self, domains: list[str]) -> str:
        """The 1-shard (whole-list) :meth:`shard_key` of ``domains``."""
        return self.shard_key(tuple(domains), tuple(range(len(domains))))

    def plan_shards(
        self, domains: list[str], *, shards: int = 1,
        cache: StudyCache | None = None,
    ) -> list[CrawlShard]:
        """The deterministic shard plan for a crawl over ``domains``.

        Uncached plans skip key hashing entirely.
        """
        return plan_crawl_shards(
            domains, shards,
            keyer=self.shard_key if cache is not None else None,
            contains=(
                (lambda key: cache.contains("har-crawl", key))
                if cache is not None else None
            ),
        )

    def _shard_tasks(self, shard: CrawlShard) -> list[_HaSiteTask]:
        """One worker task per site of ``shard``, at its global slot."""
        prime_ecosystem(self.ecosystem)
        return [
            _HaSiteTask(
                ecosystem_config=self.ecosystem.config,
                seed=self.seed,
                domain=domain,
                start_time=self.start_time + offset * self.site_slot_s,
                vantage_country=self.vantage_country,
                noise=self.noise,
                loads_per_site=self.loads_per_site,
                observe_s=self.observe_s,
                fault_profile=self.fault_profile,
            )
            for domain, offset in zip(shard.domains, shard.offsets)
        ]

    @staticmethod
    def _shard_part(shard: CrawlShard, results: list) -> HarCorpus:
        """One shard's sub-corpus from its site results."""
        part = HarCorpus(name="httparchive", provenance=shard.key)
        for domain, har, counts in results:
            if har is None:
                part.unreachable.append(domain)
            else:
                part.hars[domain] = har
            merge_counts(part.fault_counts, counts)
        return part

    def crawl(
        self, domains: list[str] | None = None,
        *, executor: Executor | None = None, cache: StudyCache | None = None,
        shards: int = 1, plan: list[CrawlShard] | None = None,
        runlog: "RunContext | None" = None,
    ) -> HarCorpus:
        """Crawl ``domains`` (default: the ecosystem's CrUX-like sample).

        With a ``cache``, shards previously crawled under an identical
        configuration load from disk and only the missing shards visit
        any site; ``plan`` passes a precomputed :meth:`plan_shards`.
        The fold over shard sub-corpora is output-identical to the
        monolithic crawl for every shard count.

        A ``runlog`` (see :mod:`repro.runlog`) journals every shard,
        retries transient failures, and quarantines poisoned shards —
        the fold then simply proceeds without them, and the study's
        coverage block owns up to the gap.
        """
        if domains is None:
            domains = self.ecosystem.httparchive_sample(seed=self.seed)
        if plan is None:
            plan = self.plan_shards(domains, shards=shards, cache=cache)

        def fold(parts: list[HarCorpus]) -> HarCorpus:
            # Shards partition the domain list, so the union is
            # lossless; everything downstream is order-insensitive (the
            # digest sorts sites, counters add).
            merged = HarCorpus(
                name="httparchive",
                provenance=fold_provenance("har-crawl", plan, parts),
            )
            for part in parts:
                merged.hars.update(part.hars)
                merged.unreachable.extend(part.unreachable)
                merge_counts(
                    merged.fault_counts, tuple(part.fault_counts.items())
                )
            return merged

        return run_sharded_stage(
            "har-crawl", "har-crawl", plan, _crawl_one_site, self._shard_tasks,
            self._shard_part, fold, executor=executor or SerialExecutor(),
            cache=cache, runlog=runlog,
            reattempt=lambda task, n: replace(task, attempt=n),
        )
