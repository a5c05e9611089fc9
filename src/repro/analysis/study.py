"""The full-study driver.

One :class:`Study` object runs everything the paper's evaluation needs,
in the paper's order:

1. generate the synthetic web (one seed → one world);
2. the HTTP Archive crawl (3 loads/site, median HAR, §4.3 noise) from
   the US vantage point, classified under the endless and immediate
   lifetime models;
3. two Alexa crawls from the German vantage point — Fetch-compliant and
   privacy-mode-patched — restricted to the runs' common reachable
   sites, classified with actual NetLog lifetimes (plus the endless
   variant);
4. the corpora overlap (Appendix A.3);
5. the DNS load-balancing study (Appendix A.4).

Every table and figure renderer consumes a Study; benches construct one
small Study per session and reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

from repro.crawl.alexa import AlexaCrawler, AlexaRun, AlexaVariant
from repro.crawl.classify import ClassifiedDataset
from repro.crawl.httparchive import HarCorpus, HttpArchiveCrawler
from repro.crawl.overlap import overlap_datasets
from repro.crawl.shards import CrawlShard, pending_items
from repro.core.session import LifetimeModel
from repro.evolve.policy import POLICIES
from repro.faults.plan import FAULTS
from repro.h3.plan import H3_PROFILES
from repro.dnsstudy.study import DnsLoadBalancingStudy, DnsStudyResult
from repro.runlog import RunContext, RunCoverage
from repro.runtime import (
    Executor,
    StageTimings,
    ecosystem_for,
    ecosystem_is_cached,
    make_executor,
    null_timings,
)
from repro.runtime.gcpause import collector_paused
from repro.store import StudyCache
from repro.util.scenario import merge_counts
from repro.web.ecosystem import Ecosystem, EcosystemConfig

__all__ = ["StudyConfig", "Study", "DATASET_LABELS"]

#: Paper-facing names of the Table 1 dataset columns.
DATASET_LABELS: dict[str, str] = {
    "har-endless": "HAR Endless",
    "har-immediate": "HAR Immediate",
    "alexa-endless": "Alexa Endless",
    "alexa": "Alexa",
    "alexa-nofetch": "Alexa w/o Fetch",
    "har-overlap": "HAR Overlap Endless",
    "alexa-overlap": "Alexa Overlap Endless",
}

#: The Fetch-compliant Alexa run, and the run with Chromium patched to
#: ignore the connection pool's privacy-mode flag (§5.3.3), scheduled
#: after the first.
ALEXA_FETCH = AlexaVariant("alexa-fetch")
ALEXA_NOFETCH = AlexaVariant(
    "alexa-nofetch", ignore_privacy_mode=True, run_offset=500_000.0
)

#: Alexa browser variants a study may crawl, by ``alexa_variants`` name.
_ALEXA_VARIANTS = {"fetch": ALEXA_FETCH, "nofetch": ALEXA_NOFETCH}


@dataclass(frozen=True)
class StudyConfig:
    """Scale and seed of one full reproduction run."""

    seed: int = 7
    n_sites: int = 1200
    #: Share of the universe whose top ranks form the Alexa list.
    alexa_share: float = 0.30
    #: Sampling share of the universe the HTTP Archive crawls.
    ha_sample_share: float = 0.85
    #: Simulated duration of the DNS study.
    dns_study_days: float = 2.0
    ecosystem_overrides: dict = field(default_factory=dict)
    #: Execution substrate for the per-site crawl stages: "serial",
    #: "thread" or "process", optionally with a worker count
    #: ("process:8").  Classification always runs in the study process.
    #: Results are executor-independent by construction; only
    #: wall-clock time changes.
    executor: str = "serial"
    #: Worker count for pool executors (None: picked per machine).
    parallelism: int | None = None
    #: Lifetime models the HAR corpus is classified under (dataset
    #: ``har-<model>`` each); a sweep axis for the §4.1 model ablation.
    har_models: tuple[str, ...] = ("endless", "immediate")
    #: Which Alexa browser variants are crawled: "fetch" (the
    #: Fetch-compliant run) and/or "nofetch" (privacy-mode patched,
    #: §5.3.3); a sweep axis for the Fetch toggle.
    alexa_variants: tuple[str, ...] = ("fetch", "nofetch")
    #: Named fault profile injected into every crawl visit (see
    #: :mod:`repro.faults`); a first-class sweep/cache axis.  The
    #: default ``"none"`` compiles to no plan at all, leaving every
    #: layer on its pre-fault code path (the golden digest pins this).
    fault_profile: str = "none"
    #: How many churn epochs of ``evolution_policy`` the world is
    #: advanced through before measuring (see :mod:`repro.evolve`); a
    #: first-class study/sweep/cache axis.  0 measures the pristine
    #: world every pre-evolution study saw (the golden digest pins it).
    epochs: int = 0
    #: Named ecosystem-churn policy for the evolution epochs; the
    #: default ``"none"`` never enters the evolution engine at all.
    evolution_policy: str = "none"
    #: Named alt-svc/HTTP-3 adoption profile for the generated world
    #: (see :mod:`repro.h3`); a first-class study/sweep/cache axis.
    #: The default ``"none"`` compiles to no plan at all, leaving the
    #: world and every browser on their pre-h3 code paths (the clean
    #: golden digest pins this).
    h3_profile: str = "none"
    #: How many deterministic site shards each crawl/classification
    #: stage is partitioned into (see :mod:`repro.crawl.shards`).  A
    #: site's shard is a hash of the domain alone, and per-shard
    #: artefacts cache under per-site-set keys, so sharded studies
    #: recompute incrementally — including across evolution epochs,
    #: where only ledger-touched shards recrawl.  Output is
    #: shard-count-invariant: the N-shard fold digests byte-identical
    #: to the 1-shard (monolithic) study.
    shards: int = 1

    def make_executor(self) -> "Executor":
        return make_executor(self.executor, self.parallelism)

    def ecosystem_config(self) -> EcosystemConfig:
        return EcosystemConfig(
            seed=self.seed,
            n_sites=self.n_sites,
            evolution_policy=self.evolution_policy,
            epoch=self.epochs,
            h3_profile=self.h3_profile,
            **self.ecosystem_overrides,
        )

    def validate(self) -> None:
        """Reject bad executor specs, lifetime models and Alexa variants.

        Everything a sweep axis can set is checked here, so grid cells
        fail fast (and CLI-cleanly) before any study work starts.
        """
        make_executor(self.executor, self.parallelism)  # raises on bad specs
        for model in self.har_models:
            LifetimeModel(model)  # raises ValueError on unknown names
        if not self.har_models:
            raise ValueError("har_models must name at least one model")
        if len(set(self.har_models)) != len(self.har_models):
            raise ValueError(f"duplicate har_models in {self.har_models!r}")
        unknown = set(self.alexa_variants) - set(_ALEXA_VARIANTS)
        if unknown or not self.alexa_variants:
            raise ValueError(
                f"alexa_variants must be a non-empty subset of "
                f"{tuple(_ALEXA_VARIANTS)}, got {self.alexa_variants!r}"
            )
        if len(set(self.alexa_variants)) != len(self.alexa_variants):
            raise ValueError(
                f"duplicate alexa_variants in {self.alexa_variants!r}"
            )
        # Each registry lookup raises ValueError on unknown names.
        FAULTS.lookup(self.fault_profile)
        POLICIES.lookup(self.evolution_policy)
        H3_PROFILES.lookup(self.h3_profile)
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        overlap = {
            "evolution_policy", "epoch", "h3_profile",
        } & set(self.ecosystem_overrides)
        if overlap:
            raise ValueError(
                f"set scenario axes via StudyConfig (epochs, "
                f"evolution_policy, h3_profile), not ecosystem_overrides "
                f"({sorted(overlap)})"
            )

    def small(self) -> "StudyConfig":
        """A scaled-down copy for quick tests.

        Built with :func:`dataclasses.replace`, so new config fields
        carry over automatically instead of being silently dropped.
        """
        return replace(
            self,
            n_sites=min(self.n_sites, 200),
            dns_study_days=0.25,
            ecosystem_overrides=dict(self.ecosystem_overrides),
        )


@dataclass
class Study:
    """All measurement artefacts of one reproduction run.

    The two Alexa runs are ``None`` when the config's
    ``alexa_variants`` excludes them (sweep ablations); the default
    config always produces both.
    """

    config: StudyConfig
    ecosystem: Ecosystem
    har_corpus: HarCorpus
    alexa_run: AlexaRun | None
    alexa_nofetch_run: AlexaRun | None
    alexa_common_sites: list[str]
    datasets: dict[str, ClassifiedDataset]
    timings: StageTimings = field(default_factory=null_timings)
    #: Shard coverage of the run (see :mod:`repro.runlog`): ``None``
    #: for cacheless runs, else complete-or-partial accounting that the
    #: digest and every report fold in when shards were quarantined.
    coverage: RunCoverage | None = None

    @classmethod
    def run(
        cls,
        config: StudyConfig | None = None,
        *,
        executor: Executor | None = None,
        timings: StageTimings | None = None,
        cache: StudyCache | None = None,
        runlog: RunContext | None = None,
        resume: bool = False,
        strict: bool = False,
    ) -> "Study":
        """Execute the full pipeline for ``config``.

        ``executor`` overrides the config's executor spec; ``timings``
        (see :mod:`repro.runtime.profile`) records per-stage wall time;
        ``cache`` (see :mod:`repro.store`) loads crawl and
        classification artefacts produced by earlier identical runs
        instead of recomputing them — cached stages record zero items.

        With a cache the run is journalled through a :class:`RunContext`
        (crash-safe, retrying, quarantining; see :mod:`repro.runlog`);
        ``resume`` replays a prior interrupted journal and skips its
        finished shards, ``strict`` restores fail-fast on the first
        shard failure.  Pass an explicit ``runlog`` to share one
        context; the caller then owns its ``finish()``/``close()``.
        """
        config = config or StudyConfig()
        config.validate()
        if resume and cache is None:
            raise ValueError("resume requires a cache to journal into")
        owns_executor = executor is None
        executor = executor if executor is not None else config.make_executor()
        timings = timings if timings is not None else null_timings()
        owns_runlog = runlog is None and cache is not None
        if owns_runlog:
            runlog = RunContext.for_study(
                config, cache, resume=resume, strict=strict
            )
        try:
            with collector_paused():
                study = cls._run(
                    config, executor, timings, cache,
                    runlog or RunContext.null(),
                )
            if runlog is not None:
                study.coverage = (
                    runlog.finish() if owns_runlog else runlog.coverage()
                )
            return study
        finally:
            if owns_runlog and runlog is not None:
                runlog.close()
            if owns_executor:
                executor.close()

    @classmethod
    def _run(
        cls,
        config: StudyConfig,
        executor: Executor,
        timings: StageTimings,
        cache: StudyCache | None,
        runlog: RunContext,
    ) -> "Study":
        eco_config = config.ecosystem_config()
        world_cached = ecosystem_is_cached(eco_config)
        with timings.stage(
            "generate-ecosystem", items=0 if world_cached else config.n_sites
        ):
            ecosystem = ecosystem_for(eco_config)
        asdb = ecosystem.asdb
        n_shards = config.shards

        ha_crawler = HttpArchiveCrawler(
            ecosystem=ecosystem, seed=config.seed + 100,
            fault_profile=config.fault_profile,
        )
        ha_domains = ecosystem.httparchive_sample(
            config.ha_sample_share, seed=config.seed + 1
        )
        # Each crawl plans its deterministic shard partition up front
        # (one shard on the default config): per-shard keys are hashed
        # at most once, cached shards record zero items, and the same
        # plan drives the crawl, the per-shard classifications and the
        # item accounting, so the three cannot drift.
        ha_plan = ha_crawler.plan_shards(
            ha_domains, shards=n_shards, cache=cache
        )
        with timings.stage("crawl-httparchive", items=pending_items(ha_plan)):
            har_corpus = ha_crawler.crawl(
                ha_domains, executor=executor, cache=cache, plan=ha_plan,
                runlog=runlog,
            )

        alexa_count = max(1, int(config.n_sites * config.alexa_share))
        alexa_domains = ecosystem.alexa_list(alexa_count)
        alexa_crawler = AlexaCrawler(
            ecosystem=ecosystem, seed=config.seed + 200,
            fault_profile=config.fault_profile,
        )
        # The Fetch-compliant run and the privacy-mode-patched one.
        alexa_runs: dict[str, AlexaRun] = {}
        alexa_plans: dict[str, list[CrawlShard]] = {}
        for label, variant in _ALEXA_VARIANTS.items():
            if label not in config.alexa_variants:
                continue
            plan = alexa_plans[label] = alexa_crawler.plan_shards(
                alexa_domains, variant, shards=n_shards, cache=cache,
            )
            with timings.stage(f"crawl-{variant.name}", items=pending_items(plan)):
                alexa_runs[label] = alexa_crawler.run(
                    alexa_domains, variant, executor=executor, cache=cache,
                    plan=plan, runlog=runlog,
                )
        # "We review the intersection of websites for comparability."
        common = sorted(set.intersection(*(
            set(run.reachable_sites) for run in alexa_runs.values()
        )))

        # One classification stage per dataset, with one shard per
        # crawl shard, run in this process: only the crawls go to the
        # executor.  A quarantined crawl shard has no data in the
        # corpus: classifying its (empty) share would poison the cache
        # under the full shard's classify key, so it is left out.
        def live(plan: list[CrawlShard]) -> list[CrawlShard]:
            return [
                shard for shard in plan
                if not runlog.is_quarantined(shard.key)
            ]

        jobs: list[tuple[str, list[CrawlShard], Callable]] = []
        for model_value in config.har_models:
            model = LifetimeModel(model_value)
            name = f"har-{model_value}"
            plan = har_corpus.classify_plan(
                model, name, crawl_plan=live(ha_plan), cache=cache
            )
            jobs.append((name, plan, partial(har_corpus.classify, model=model)))
        for variant, name, model in (
            ("fetch", "alexa-endless", LifetimeModel.ENDLESS),
            ("fetch", "alexa", LifetimeModel.ACTUAL),
            ("nofetch", "alexa-nofetch", LifetimeModel.ACTUAL),
        ):
            if variant not in alexa_runs:
                continue
            run = alexa_runs[variant]
            plan = run.classify_plan(
                model, name, sites=common,
                crawl_plan=live(alexa_plans[variant]), cache=cache,
            )
            jobs.append((name, plan, partial(run.classify, model=model)))
        with timings.stage(
            "classify-datasets",
            items=sum(pending_items(plan) for _, plan, _ in jobs),
        ):
            datasets = {
                name: classify(
                    name=name, plan=plan, asdb=asdb, cache=cache,
                    runlog=runlog,
                )
                for name, plan, classify in jobs
            }
        if "har-endless" in datasets and "alexa-endless" in datasets:
            with timings.stage("overlap"):
                har_overlap, alexa_overlap = overlap_datasets(
                    datasets["har-endless"], datasets["alexa-endless"]
                )
                datasets["har-overlap"] = har_overlap
                datasets["alexa-overlap"] = alexa_overlap

        return cls(
            config=config,
            ecosystem=ecosystem,
            har_corpus=har_corpus,
            alexa_run=alexa_runs.get("fetch"),
            alexa_nofetch_run=alexa_runs.get("nofetch"),
            alexa_common_sites=common,
            datasets=datasets,
            timings=timings,
        )

    # ------------------------------------------------------------------
    def dataset(self, key: str) -> ClassifiedDataset:
        return self.datasets[key]

    def fault_counts(self) -> dict[str, int]:
        """Injected-fault strikes across every crawl, by fault kind.

        Empty for the default ``fault_profile="none"``; the resilience
        report renders this as its failure-taxonomy table.
        """
        totals: dict[str, int] = dict(self.har_corpus.fault_counts)
        for run in (self.alexa_run, self.alexa_nofetch_run):
            if run is not None:
                merge_counts(totals, tuple(run.fault_counts.items()))
        return totals

    @cached_property
    def dns_study(self) -> DnsStudyResult:
        """The Appendix A.4 resolver study (computed on first use)."""
        study = DnsLoadBalancingStudy(
            ecosystem=self.ecosystem,
            duration_s=self.config.dns_study_days * 24 * 3600.0,
        )
        return study.run()

    def connection_lifetimes(self) -> list[float]:
        """Lifetimes of Alexa connections that closed before test end."""
        lifetimes = []
        if self.alexa_run is None:
            return lifetimes
        for domain in self.alexa_common_sites:
            measurement = self.alexa_run.measurements[domain]
            for record in measurement.records:
                if record.protocol != "h2":
                    continue
                lifetime = record.lifetime()
                if lifetime is not None:
                    lifetimes.append(lifetime)
        return lifetimes

    def early_closed_lifetimes(self) -> list[float]:
        """Lifetimes of sessions closed by the server (GOAWAY) only."""
        lifetimes = []
        if self.alexa_run is None:
            return lifetimes
        for domain in self.alexa_common_sites:
            measurement = self.alexa_run.measurements[domain]
            goaway_ids = set(measurement.goaway_connection_ids)
            if not goaway_ids:
                continue
            for record in measurement.records:
                if record.connection_id in goaway_ids:
                    lifetime = record.lifetime()
                    if lifetime is not None:
                        lifetimes.append(lifetime)
        return lifetimes
