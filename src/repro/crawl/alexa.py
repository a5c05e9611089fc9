"""The paper's own Alexa Top-N measurements (§4.2.2).

Browsertime-driving-Chromium-87 is modelled as: visit every Alexa
domain once from the university vantage point in Germany, QUIC and
field trials disabled, 300 s page timeout, collecting NetLogs.  Two runs
are performed: one following the Fetch Standard and one with Chromium
patched to ignore the connection pool's credentials flag
(``privacy_mode``) — the §5.3.3 ablation.

A small share of sites is unreachable per run (the paper found ~18 k of
100 k); unreachability is mostly site-persistent with a transient
component, so the two runs' reachable sets overlap almost completely
(the paper reviews "the intersection of websites for comparability").

As with the HTTP Archive crawl, sites are measured independently — each
gets its own time slot, browser and RNG streams derived from
``(seed, run, domain)`` — so a run maps over any
:class:`~repro.runtime.Executor` without changing its output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.browser.browser import BrowserConfig
from repro.crawl.classify import (
    ClassifiedDataset,
    classify_cache_key,
    classify_item,
    plan_classification,
    run_classification,
)
from repro.crawl.shards import CrawlShard
from repro.crawl.site import SiteCrawler, SiteTask, open_site
from repro.core.session import LifetimeModel, SessionRecord
from repro.netlog.parser import parse_sessions
from repro.runtime import Executor
from repro.store import StudyCache, stable_key
from repro.util.clock import SimClock
from repro.util.rng import RngFactory, stable_hash
from repro.util.scenario import merge_counts
from repro.web.ecosystem import WorldIndex

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runlog import RunContext

__all__ = ["AlexaMeasurement", "AlexaRun", "AlexaCrawler", "AlexaVariant"]


@dataclass(frozen=True)
class AlexaVariant:
    """What names one Alexa run: its name, browser patch and schedule.

    ``name`` seeds the run's per-site RNG streams and fault plans and
    names its journal stage; ``run_offset`` shifts the run's schedule
    so two runs of one crawler do not overlap in simulated time.
    """

    name: str
    ignore_privacy_mode: bool = False
    honor_origin_frame: bool = False
    run_offset: float = 0.0


@dataclass
class AlexaMeasurement:
    """One site's measurement in one run."""

    domain: str
    unreachable: bool
    records: list[SessionRecord] = field(default_factory=list)
    #: Connections the server closed early with a GOAWAY (extracted from
    #: the NetLog at crawl time, so the log itself need not be kept).
    goaway_connection_ids: tuple[int, ...] = ()
    #: Injected-fault strikes during this site's visit, by kind value
    #: (empty without a fault profile).
    fault_counts: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True, kw_only=True)
class _AlexaSiteTask(SiteTask):
    """One site of one Alexa run."""

    run_name: str
    permanent_unreachable_share: float
    transient_unreachable_share: float


def _measure_one_site(task: _AlexaSiteTask) -> AlexaMeasurement:
    """One Browsertime-style visit (runs inside an executor worker)."""
    # Site-persistent unreachability: run-independent, seed-stable.
    permanently_down = stable_hash("down", task.seed, task.domain) % 10_000 < (
        task.permanent_unreachable_share * 10_000
    )
    rng = RngFactory(stable_hash(task.seed, task.run_name, "site", task.domain))
    transient = (
        rng.stream("transient").random() < task.transient_unreachable_share
    )
    if permanently_down or transient:
        return AlexaMeasurement(domain=task.domain, unreachable=True)

    browser, fault_counts = open_site(
        task, run=task.run_name, resolver="internal", rng=rng,
        clock=SimClock(task.start_time),
    )
    visit = browser.visit(task.domain)
    counts = fault_counts()
    if visit.unreachable:
        return AlexaMeasurement(
            domain=task.domain, unreachable=True, fault_counts=counts
        )
    parsed = parse_sessions(visit.netlog)
    return AlexaMeasurement(
        domain=task.domain,
        unreachable=False,
        records=parsed.records,
        goaway_connection_ids=tuple(sorted(parsed.goaway_sessions)),
        fault_counts=counts,
    )


@dataclass
class AlexaRun:
    """One full crawl of the Alexa list."""

    name: str
    measurements: dict[str, AlexaMeasurement] = field(default_factory=dict)
    #: Stable key of the crawl configuration that produced this run
    #: (set by the crawler); classification caching derives from it.
    provenance: str | None = None

    @property
    def fault_counts(self) -> dict[str, int]:
        """Injected-fault strikes across the whole run, by kind."""
        totals: dict[str, int] = {}
        for measurement in self.measurements.values():
            merge_counts(totals, measurement.fault_counts)
        return totals

    @property
    def reachable_sites(self) -> list[str]:
        return [
            domain
            for domain, measurement in self.measurements.items()
            if not measurement.unreachable
        ]

    @property
    def unreachable_count(self) -> int:
        return sum(1 for m in self.measurements.values() if m.unreachable)

    def classify_plan(
        self, model: LifetimeModel, name: str | None = None, *,
        sites: list[str] | None = None,
        crawl_plan: list[CrawlShard] | None = None,
        cache: StudyCache | None = None,
    ) -> list[CrawlShard]:
        """The classification shards of (a subset of) the run.

        One shard per crawl shard of ``crawl_plan``, over the shard's
        reachable share of ``sites`` (default: every reachable site);
        without a plan, one shard over the whole run keyed on its
        provenance.  Keys are hashed only with a ``cache``.
        """
        name = name or f"{self.name}-{model.value}"
        return plan_classification(
            self.measurements, self.reachable_sites, self.provenance,
            lambda shard, chosen: classify_cache_key(
                "alexa", shard, model, name,
                None if sites is None else tuple(chosen),
            ),
            sites=sites, crawl_plan=crawl_plan, cache=cache,
        )

    def classify(
        self, *, model: LifetimeModel, asdb=None, name: str | None = None,
        sites: list[str] | None = None, cache: StudyCache | None = None,
        plan: list[CrawlShard] | None = None,
        runlog: "RunContext | None" = None,
    ) -> ClassifiedDataset:
        """Classify (a subset of) the run under ``model``.

        Runs :func:`~repro.crawl.classify.run_classification` over
        ``plan`` (default: one shard over ``sites`` of the whole run,
        see :meth:`classify_plan`).
        """
        name = name or f"{self.name}-{model.value}"
        if plan is None:
            plan = self.classify_plan(model, name, sites=sites, cache=cache)
        return run_classification(
            name, model, plan, classify_item,
            lambda shard: [
                (site, self.measurements[site].records, model.value)
                for site in shard.domains
            ],
            asdb=asdb, cache=cache, runlog=runlog,
        )


@dataclass
class AlexaCrawler(SiteCrawler):
    """Runs Browsertime-style crawls over the Alexa list."""

    kind = "alexa-crawl"

    world: WorldIndex
    seed: int = 23
    vantage_country: str = "DE"
    start_time: float = 1_000_000.0
    observe_s: float = 300.0
    #: Site-persistent unreachability (server gone, blocking us, ...).
    permanent_unreachable_share: float = 0.04
    #: Per-run transient failures (timeouts).
    transient_unreachable_share: float = 0.01
    #: Named fault profile injected into every visit (see
    #: :mod:`repro.faults`); ``"none"`` is provably inert.
    fault_profile: str = "none"

    @property
    def site_slot_s(self) -> float:
        """Simulated time reserved per site in a run."""
        return self.observe_s + 10.0

    def shard_key(
        self,
        domains: tuple[str, ...],
        offsets: tuple[int, ...],
        variant: AlexaVariant,
    ) -> str:
        """Stable cache key of one shard of one run of ``variant``.

        Like the HTTP Archive shard key: the shard domains' world
        identity (pristine config + evolution token), the run knobs,
        and the domains with their global schedule slots.
        """
        return stable_key(
            "alexa-crawl",
            *self.world.cache_world_key(domains),
            self.seed,
            self.vantage_country,
            self.start_time,
            self.observe_s,
            self.permanent_unreachable_share,
            self.transient_unreachable_share,
            self.fault_profile,
            variant.name,
            variant.ignore_privacy_mode,
            variant.honor_origin_frame,
            variant.run_offset,
            domains,
            offsets,
        )

    def run(
        self,
        domains: list[str],
        variant: AlexaVariant,
        *,
        executor: Executor | None = None,
        cache: StudyCache | None = None,
        shards: int = 1,
        plan: list[CrawlShard] | None = None,
        runlog: "RunContext | None" = None,
    ) -> AlexaRun:
        """One crawl over ``domains`` as run ``variant``.

        Journal stage ``variant.name``; ``plan`` passes a precomputed
        :meth:`plan_shards`; see :class:`~repro.crawl.site.SiteCrawler`
        for ``cache`` and ``runlog``.
        """
        if plan is None:
            plan = self.plan_shards(domains, variant, shards=shards, cache=cache)
        browser = BrowserConfig(
            vantage_country=self.vantage_country,
            ignore_privacy_mode=variant.ignore_privacy_mode,
            honor_origin_frame=variant.honor_origin_frame,
            observe_s=self.observe_s,
        )

        start = self.start_time + variant.run_offset

        def task(domain: str, offset: int) -> _AlexaSiteTask:
            return _AlexaSiteTask(
                ecosystem_config=self.world.config,
                seed=self.seed,
                domain=domain,
                start_time=start + offset * self.site_slot_s,
                browser=browser,
                fault_profile=self.fault_profile,
                run_name=variant.name,
                permanent_unreachable_share=self.permanent_unreachable_share,
                transient_unreachable_share=self.transient_unreachable_share,
            )

        def shard_part(
            shard: CrawlShard, results: list[AlexaMeasurement]
        ) -> AlexaRun:
            return AlexaRun(
                name=variant.name,
                measurements={
                    measurement.domain: measurement for measurement in results
                },
                provenance=shard.key,
            )

        def fold(parts: list[AlexaRun], provenance: str | None) -> AlexaRun:
            merged = AlexaRun(name=variant.name, provenance=provenance)
            for part in parts:
                merged.measurements.update(part.measurements)
            return merged

        return self._crawl_stage(
            variant.name, plan, _measure_one_site, task, shard_part, fold,
            executor=executor, cache=cache, runlog=runlog,
        )
