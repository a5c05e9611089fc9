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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.browser.browser import BrowserConfig
from repro.crawl.classify import (
    ClassifiedDataset,
    Outcome,
    classify_cache_key,
    plan_classification,
    run_classification,
)
from repro.crawl.shards import CrawlShard
from repro.crawl.site import SiteCrawler, SiteTask, open_site
from repro.core.classifier import classify_site
from repro.core.session import LifetimeModel
from repro.har.model import HarFile
from repro.har.reader import read_sessions
from repro.har.writer import HarNoiseConfig, write_har
from repro.runtime import Executor
from repro.store import StudyCache, stable_key
from repro.util.clock import SimClock
from repro.util.rng import RngFactory, stable_hash
from repro.util.scenario import merge_counts
from repro.web.ecosystem import WorldIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runlog import RunContext

__all__ = ["HarCorpus", "HttpArchiveCrawler"]


@dataclass(frozen=True, kw_only=True)
class _HaSiteTask(SiteTask):
    """One site of the HTTP Archive crawl."""

    noise: HarNoiseConfig
    loads_per_site: int


def _crawl_one_site(
    task: _HaSiteTask,
) -> tuple[str, HarFile | None, tuple[tuple[str, int], ...]]:
    """Visit one site ``loads_per_site`` times; keep the median HAR.

    Returns ``(domain, median HAR or None, fired-fault counts)``.  One
    fault plan spans all three loads of the site.
    """
    rng = RngFactory(stable_hash(task.seed, "ha-site", task.domain))
    clock = SimClock(task.start_time)
    browser, fault_counts = open_site(
        task, run="httparchive", resolver="httparchive-crux", rng=rng,
        clock=clock,
    )
    gap_rng = rng.stream("gaps")
    visits = []
    for _ in range(task.loads_per_site):
        visit = browser.visit(task.domain)
        if visit.unreachable:
            break
        visits.append(visit)
        clock.advance(gap_rng.uniform(1.0, 5.0))
    counts = fault_counts()
    if not visits:
        return task.domain, None, counts
    # Median of three by onLoad time, like the HTTP Archive.
    visits.sort(key=lambda visit: visit.load.load_time)
    median_visit = visits[len(visits) // 2]
    har = write_har(median_visit, noise=task.noise, rng=rng.stream("har-noise"))
    return task.domain, har, counts


def _sanitize_and_classify(item: tuple[str, HarFile, str]) -> Outcome:
    """§4.3 sanitisation + §4.1 classification of one HAR."""
    site, har, model_value = item
    result = read_sessions(har)
    classification = classify_site(
        site, result.records, model=LifetimeModel(model_value)
    )
    return classification, result.stats


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
        return plan_classification(
            self.hars, list(self.hars), self.provenance,
            lambda shard, _: classify_cache_key("har", shard, model, name),
            crawl_plan=crawl_plan, cache=cache,
        )

    def classify(
        self, *, model: LifetimeModel, asdb=None, name: str | None = None,
        cache: StudyCache | None = None,
        plan: list[CrawlShard] | None = None,
        runlog: "RunContext | None" = None,
    ) -> ClassifiedDataset:
        """Sanitize all HARs and classify under ``model``.

        Runs :func:`~repro.crawl.classify.run_classification` over
        ``plan`` (default: one shard over the whole corpus, see
        :meth:`classify_plan`).
        """
        name = name or f"{self.name}-{model.value}"
        if plan is None:
            plan = self.classify_plan(model, name, cache=cache)
        return run_classification(
            name, model, plan, _sanitize_and_classify,
            lambda shard: [
                (site, self.hars[site], model.value) for site in shard.domains
            ],
            asdb=asdb, cache=cache, runlog=runlog,
        )


@dataclass
class HttpArchiveCrawler(SiteCrawler):
    """Visits sites three times and keeps the median-load HAR."""

    kind = "har-crawl"

    world: WorldIndex
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
            *self.world.cache_world_key(domains),
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
        """Crawl ``domains`` (default: the world's CrUX-like sample).

        ``plan`` passes a precomputed :meth:`plan_shards`; see
        :class:`~repro.crawl.site.SiteCrawler` for ``cache`` and
        ``runlog``.
        """
        if domains is None:
            domains = self.world.httparchive_sample(seed=self.seed)
        if plan is None:
            plan = self.plan_shards(domains, shards=shards, cache=cache)
        browser = BrowserConfig(
            vantage_country=self.vantage_country, observe_s=self.observe_s
        )

        def task(domain: str, offset: int) -> _HaSiteTask:
            return _HaSiteTask(
                ecosystem_config=self.world.config,
                seed=self.seed,
                domain=domain,
                start_time=self.start_time + offset * self.site_slot_s,
                browser=browser,
                fault_profile=self.fault_profile,
                noise=self.noise,
                loads_per_site=self.loads_per_site,
            )

        def fold(parts: list[HarCorpus], provenance: str | None) -> HarCorpus:
            # Shards partition the domain list, so the union is
            # lossless; everything downstream is order-insensitive (the
            # digest sorts sites, counters add).
            merged = HarCorpus(name="httparchive", provenance=provenance)
            for part in parts:
                merged.hars.update(part.hars)
                merged.unreachable.extend(part.unreachable)
                merge_counts(
                    merged.fault_counts, tuple(part.fault_counts.items())
                )
            return merged

        return self._crawl_stage(
            "har-crawl", plan, _crawl_one_site, task, self._shard_part, fold,
            executor=executor, cache=cache, runlog=runlog,
        )
