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

from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

from repro.browser.browser import BrowserConfig, ChromiumBrowser
from repro.crawl.classify import (
    ClassifiedDataset,
    aggregate_classifications,
    classify_item,
    merge_classified_datasets,
)
from repro.crawl.shards import (
    CrawlShard,
    fold_provenance,
    plan_crawl_shards,
    run_sharded_stage,
)
from repro.core.session import LifetimeModel, SessionRecord
from repro.faults.plan import FaultPlan
from repro.netlog.events import NetLog
from repro.netlog.parser import parse_sessions
from repro.runtime import Executor, SerialExecutor, ecosystem_for, prime_ecosystem
from repro.store import StudyCache, stable_key
from repro.util.clock import SimClock
from repro.util.rng import RngFactory, stable_hash
from repro.util.scenario import merge_counts
from repro.web.ecosystem import Ecosystem, EcosystemConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runlog import RunContext

__all__ = ["AlexaMeasurement", "AlexaRun", "AlexaCrawler"]


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
    #: The raw NetLog; only retained under ``AlexaCrawler.keep_netlogs``
    #: — shipping full logs back from pool workers dwarfs the cost of
    #: the visit itself.
    netlog: NetLog | None = None


@dataclass(frozen=True)
class _AlexaSiteTask:
    """Everything one worker needs to measure one site in one run."""

    ecosystem_config: EcosystemConfig
    seed: int
    run_name: str
    domain: str
    start_time: float
    vantage_country: str
    ignore_privacy_mode: bool
    honor_origin_frame: bool
    observe_s: float
    permanent_unreachable_share: float
    transient_unreachable_share: float
    keep_netlog: bool
    fault_profile: str = "none"
    #: Retry generation (set by the run layer's re-dispatch); feeds
    #: only the attempt-bounded ``worker-crash`` fault, never an RNG
    #: stream, so a task's *output* is attempt-independent.
    attempt: int = 0


def _permanently_down(seed: int, domain: str, share: float) -> bool:
    """Site-persistent unreachability: run-independent, seed-stable."""
    return stable_hash("down", seed, domain) % 10_000 < share * 10_000


def _measure_one_site(task: _AlexaSiteTask) -> AlexaMeasurement:
    """One Browsertime-style visit (runs inside an executor worker)."""
    permanently_down = _permanently_down(
        task.seed, task.domain, task.permanent_unreachable_share
    )
    rng = RngFactory(stable_hash(task.seed, task.run_name, "site", task.domain))
    transient = (
        rng.stream("transient").random() < task.transient_unreachable_share
    )
    if permanently_down or transient:
        return AlexaMeasurement(domain=task.domain, unreachable=True)

    ecosystem = ecosystem_for(task.ecosystem_config)
    plan = FaultPlan.compile(
        task.fault_profile, seed=task.seed, run=task.run_name,
        domain=task.domain,
    )
    if plan is not None and plan.task_crash(task.attempt):
        from repro.runlog.errors import WorkerCrashError

        raise WorkerCrashError(
            f"injected worker crash measuring {task.domain} in "
            f"{task.run_name} (attempt {task.attempt})"
        )
    resolver = ecosystem.make_resolver("internal")
    if plan is not None:
        resolver.faults = plan
    browser = ChromiumBrowser(
        ecosystem=ecosystem,
        resolver=resolver,
        clock=SimClock(task.start_time),
        rng=rng.stream("browser"),
        config=BrowserConfig(
            vantage_country=task.vantage_country,
            ignore_privacy_mode=task.ignore_privacy_mode,
            honor_origin_frame=task.honor_origin_frame,
            observe_s=task.observe_s,
        ),
        faults=plan,
    )
    visit = browser.visit(task.domain)
    counts = plan.counts() if plan is not None else ()
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
        netlog=visit.netlog if task.keep_netlog else None,
        fault_counts=counts,
    )


@dataclass
class AlexaRun:
    """One full crawl of the Alexa list."""

    name: str
    ignore_privacy_mode: bool
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

    def classify_cache_key(
        self, shard: CrawlShard, model: LifetimeModel, name: str,
        sites: list[str] | None,
    ) -> str | None:
        """Cache key for classifying one crawl shard, ``None`` uncached."""
        if shard.key is None:
            return None
        return stable_key(
            "classify-alexa", shard.key, model.value, name,
            tuple(sites) if sites is not None else None,
        )

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
        if crawl_plan is None:
            crawl_plan = [CrawlShard(
                index=0, domains=tuple(self.measurements), key=self.provenance
            )]
        plan = []
        for shard in crawl_plan:
            members = set(shard.domains)
            chosen = [
                site for site in (self.reachable_sites if sites is None
                                  else sites)
                if site in members
            ]
            key = self.classify_cache_key(
                shard, model, name, None if sites is None else chosen
            ) if cache is not None else None
            plan.append(CrawlShard(
                index=shard.index,
                domains=tuple(
                    site for site in chosen
                    if not self.measurements[site].unreachable
                ),
                key=key,
                cached=key is not None and cache.contains("classify", key),
            ))
        return plan

    def classify(
        self, *, model: LifetimeModel, asdb=None, name: str | None = None,
        sites: list[str] | None = None, executor: Executor | None = None,
        cache: StudyCache | None = None,
        plan: list[CrawlShard] | None = None,
        runlog: "RunContext | None" = None,
    ) -> ClassifiedDataset:
        """Classify (a subset of) the run under ``model``.

        Runs as stage ``classify-<name>`` of the shard driver over
        ``plan`` (default: one shard over ``sites`` of the whole run,
        see :meth:`classify_plan`).  With a ``cache`` (and a
        crawler-set provenance) each shard's dataset is loaded from /
        stored to disk keyed on the crawl configuration, the lifetime
        model and the site subset; a ``runlog`` journals, retries and
        quarantines the shards like the crawls.
        """
        name = name or f"{self.name}-{model.value}"
        if plan is None:
            plan = self.classify_plan(model, name, sites=sites, cache=cache)
        return run_sharded_stage(
            f"classify-{name}", "classify", plan, classify_item,
            lambda shard: [
                (site, self.measurements[site].records, model.value)
                for site in shard.domains
            ],
            lambda shard, classified: aggregate_classifications(
                name, model, zip(shard.domains, classified), asdb=asdb
            ),
            lambda parts: merge_classified_datasets(
                name, model, parts, asdb=asdb
            ),
            executor=executor or SerialExecutor(), cache=cache, runlog=runlog,
        )


@dataclass
class AlexaCrawler:
    """Runs Browsertime-style crawls over the Alexa list."""

    ecosystem: Ecosystem
    seed: int = 23
    vantage_country: str = "DE"
    start_time: float = 1_000_000.0
    observe_s: float = 300.0
    #: Site-persistent unreachability (server gone, blocking us, ...).
    permanent_unreachable_share: float = 0.04
    #: Per-run transient failures (timeouts).
    transient_unreachable_share: float = 0.01
    #: Retain each visit's raw NetLog on the measurement.  The study
    #: pipeline only needs the parsed records and GOAWAY ids, so logs
    #: are dropped by default.
    keep_netlogs: bool = False
    #: Named fault profile injected into every visit (see
    #: :mod:`repro.faults`); ``"none"`` is provably inert.
    fault_profile: str = "none"

    @property
    def site_slot_s(self) -> float:
        """Simulated time reserved per site in a run."""
        return self.observe_s + 10.0

    def _permanently_down(self, domain: str) -> bool:
        return _permanently_down(
            self.seed, domain, self.permanent_unreachable_share
        )

    def shard_key(
        self,
        domains: tuple[str, ...],
        offsets: tuple[int, ...],
        *,
        run_name: str,
        ignore_privacy_mode: bool = False,
        honor_origin_frame: bool = False,
        run_offset: float = 0.0,
    ) -> str:
        """Stable cache key of one shard of one run configuration.

        Like the HTTP Archive shard key: the shard domains' world
        identity (pristine config + evolution token), the run knobs,
        and the domains with their global schedule slots.
        """
        return stable_key(
            "alexa-crawl",
            *self.ecosystem.cache_world_key(domains),
            self.seed,
            self.vantage_country,
            self.start_time,
            self.observe_s,
            self.permanent_unreachable_share,
            self.transient_unreachable_share,
            self.keep_netlogs,
            self.fault_profile,
            run_name,
            ignore_privacy_mode,
            honor_origin_frame,
            run_offset,
            domains,
            offsets,
        )

    def stage_key(
        self,
        domains: list[str],
        *,
        run_name: str,
        ignore_privacy_mode: bool = False,
        honor_origin_frame: bool = False,
        run_offset: float = 0.0,
    ) -> str:
        """The 1-shard (whole-list) :meth:`shard_key` of ``domains``."""
        return self.shard_key(
            tuple(domains), tuple(range(len(domains))),
            run_name=run_name, ignore_privacy_mode=ignore_privacy_mode,
            honor_origin_frame=honor_origin_frame, run_offset=run_offset,
        )

    def plan_shards(
        self,
        domains: list[str],
        *,
        shards: int = 1,
        run_name: str,
        ignore_privacy_mode: bool = False,
        honor_origin_frame: bool = False,
        run_offset: float = 0.0,
        cache: StudyCache | None = None,
    ) -> list[CrawlShard]:
        """The deterministic shard plan for one run over ``domains``."""
        keyer = partial(
            self.shard_key, run_name=run_name,
            ignore_privacy_mode=ignore_privacy_mode,
            honor_origin_frame=honor_origin_frame, run_offset=run_offset,
        )
        return plan_crawl_shards(
            domains, shards,
            keyer=keyer if cache is not None else None,
            contains=(
                (lambda key: cache.contains("alexa-crawl", key))
                if cache is not None else None
            ),
        )

    def run(
        self,
        domains: list[str],
        *,
        run_name: str,
        ignore_privacy_mode: bool = False,
        honor_origin_frame: bool = False,
        run_offset: float = 0.0,
        executor: Executor | None = None,
        cache: StudyCache | None = None,
        shards: int = 1,
        plan: list[CrawlShard] | None = None,
        runlog: "RunContext | None" = None,
    ) -> AlexaRun:
        """One crawl over ``domains`` with the given browser patch.

        With a ``cache``, shards previously crawled under an identical
        configuration load from disk and only the missing shards visit
        any site; ``plan`` passes a precomputed :meth:`plan_shards`.
        A ``runlog`` journals (as stage ``run_name``), retries and — on
        poison — quarantines shards exactly like the HTTP Archive crawl.
        """
        if plan is None:
            plan = self.plan_shards(
                domains, shards=shards, run_name=run_name,
                ignore_privacy_mode=ignore_privacy_mode,
                honor_origin_frame=honor_origin_frame,
                run_offset=run_offset, cache=cache,
            )

        def shard_tasks(shard: CrawlShard) -> list[_AlexaSiteTask]:
            prime_ecosystem(self.ecosystem)
            return [
                _AlexaSiteTask(
                    ecosystem_config=self.ecosystem.config,
                    seed=self.seed,
                    run_name=run_name,
                    domain=domain,
                    start_time=(
                        self.start_time + run_offset
                        + offset * self.site_slot_s
                    ),
                    vantage_country=self.vantage_country,
                    ignore_privacy_mode=ignore_privacy_mode,
                    honor_origin_frame=honor_origin_frame,
                    observe_s=self.observe_s,
                    permanent_unreachable_share=(
                        self.permanent_unreachable_share
                    ),
                    transient_unreachable_share=(
                        self.transient_unreachable_share
                    ),
                    keep_netlog=self.keep_netlogs,
                    fault_profile=self.fault_profile,
                )
                for domain, offset in zip(shard.domains, shard.offsets)
            ]

        def shard_part(
            shard: CrawlShard, results: list[AlexaMeasurement]
        ) -> AlexaRun:
            return AlexaRun(
                name=run_name, ignore_privacy_mode=ignore_privacy_mode,
                measurements={
                    measurement.domain: measurement for measurement in results
                },
                provenance=shard.key,
            )

        def fold(parts: list[AlexaRun]) -> AlexaRun:
            merged = AlexaRun(
                name=run_name, ignore_privacy_mode=ignore_privacy_mode,
                provenance=fold_provenance("alexa-crawl", plan, parts),
            )
            for part in parts:
                merged.measurements.update(part.measurements)
            return merged

        return run_sharded_stage(
            run_name, "alexa-crawl", plan, _measure_one_site, shard_tasks,
            shard_part, fold, executor=executor or SerialExecutor(), cache=cache,
            runlog=runlog, reattempt=lambda task, n: replace(task, attempt=n),
        )
