"""The full-study driver.

One :class:`Study` object runs everything the paper's evaluation needs,
in the paper's order:

1. index the synthetic web (one seed → one world); the world itself is
   built only when a crawl shard is not in the study cache;
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
from typing import Any, Callable, Sequence

from repro.crawl.alexa import AlexaCrawler, AlexaRun, AlexaVariant
from repro.crawl.classify import (
    ClassifiedDataset,
    classify_cache_key,
    merge_classified_datasets,
)
from repro.crawl.httparchive import HarCorpus, HttpArchiveCrawler
from repro.crawl.overlap import overlap_datasets
from repro.crawl.shards import (
    ON_DISK,
    CrawlShard,
    ShardStage,
    pending_items,
    run_stages,
)
from repro.core.session import LifetimeModel
from repro.evolve.policy import POLICIES
from repro.faults.plan import FAULTS
from repro.h3.plan import H3_PROFILES
from repro.dnsstudy.study import DnsLoadBalancingStudy, DnsStudyResult
from repro.runlog import RunContext, RunCoverage
from repro.runtime import (
    Executor,
    SerialExecutor,
    StageTimings,
    ecosystem_for,
    make_executor,
    world_index_for,
    world_index_is_cached,
)
from repro.runtime.executor import parse_executor_spec
from repro.runtime.gcpause import collector_paused
from repro.runtime.profile import StageWindow
from repro.store import StudyCache, stable_key
from repro.util.scenario import merge_counts
from repro.web.ecosystem import Ecosystem, EcosystemConfig, WorldIndex

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
        """Reject bad sizes, executor specs, lifetime models and variants.

        Everything a sweep axis can set is checked here, so grid cells
        fail fast (and CLI-cleanly) before any study work starts.
        """
        if not self.n_sites >= 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        for name in ("alexa_share", "ha_sample_share"):
            share = getattr(self, name)
            if not 0 < share <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {share}")
        if not self.dns_study_days >= 0:
            raise ValueError(
                f"dns_study_days must be >= 0, got {self.dns_study_days}"
            )
        parse_executor_spec(self.executor, self.parallelism)
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


#: The Alexa datasets, in fold order: ``(variant, name, lifetime model)``.
_ALEXA_DATASETS = (
    ("fetch", "alexa-endless", LifetimeModel.ENDLESS),
    ("fetch", "alexa", LifetimeModel.ACTUAL),
    ("nofetch", "alexa-nofetch", LifetimeModel.ACTUAL),
)


def _share_key(shards: Sequence[CrawlShard]) -> str:
    """The ``alexa-share`` key of one Alexa shard index: its crawl shard
    keys, one per crawled variant in variant order."""
    return stable_key("alexa-share", *(shard.key for shard in shards))


class _ClassifyNodes:
    """A study's classify nodes, run in its process as crawl shards land.

    One classification stage per dataset, one shard per crawl shard.  A
    HAR classify shard is ready when its crawl shard lands.  An Alexa
    classify shard *i* is ready when every crawled variant's shard *i*
    has: the variants partition one domain list by domain hash, so the
    shard's share of the runs' common sites is the intersection of the
    shards' reachable sites.  A quarantined crawl shard gets no
    classify shard (its empty share would poison the cache under the
    full shard's key) and leaves the other variant's shard *i* an empty
    share.  Each node runs through its part's ``classify`` with a
    one-shard plan, so it has the key and journal stage of the
    whole-dataset plan's shard; partials fold in plan order, so the
    order shards land in never reaches a dataset.

    A crawl shard that :meth:`plan` marks lazy lands :data:`ON_DISK`:
    its classify nodes load from the cache by key, and only a node that
    misses there loads the crawl shard (through ``crawls``) and
    classifies it.  An Alexa share is cached as a sidecar (kind
    ``alexa-share``) the first time it is computed, so a later run can
    key the shard's classify nodes without loading its crawl shards.
    """

    def __init__(self, config: StudyConfig, variants: list[str],
                 index: WorldIndex, timings: StageTimings,
                 cache: StudyCache | None, runlog: RunContext) -> None:
        self.har_models = [LifetimeModel(value) for value in config.har_models]
        self.variants = variants
        self.alexa_datasets = [
            dataset for dataset in _ALEXA_DATASETS if dataset[0] in variants
        ]
        self.asdb = index.asdb
        self.timings = timings
        self.cache = cache
        self.runlog = runlog
        #: Loads a lazy crawl shard's part (set before the run).
        self.crawls: _Crawls | None = None
        #: Dataset name -> {crawl shard index: partial dataset}.
        self.partials: dict[str, dict[int, ClassifiedDataset]] = {}
        #: Alexa shard index -> {variant: (crawl shard, part or None)},
        #: until every variant's shard has landed.
        self.alexa: dict[int, dict[str, tuple[CrawlShard, Any]]] = {}
        #: Alexa shard index -> its sorted share of the common sites.
        self.shares: dict[int, list[str]] = {}
        self.window: StageWindow | None = None
        self.items = 0

    def plan(
        self, ha_plan: list[CrawlShard],
        alexa_plans: dict[str, list[CrawlShard]],
    ) -> tuple[list[CrawlShard], dict[str, list[CrawlShard]]]:
        """The crawl plans with every shard no classify node reads lazy.

        A crawl shard is lazy when it and every classify node it feeds
        are cached.  An Alexa classify key hashes the shard's share of
        the common sites, so an Alexa shard index is probed only when
        every variant's shard is cached and its sidecar holds the share.
        """
        if self.cache is None:
            return ha_plan, alexa_plans
        ha_plan = [
            replace(shard, lazy=True) if shard.cached and all(
                self._cached(_har_key(shard, model))
                for model in self.har_models
            ) else shard
            for shard in ha_plan
        ]
        lazy: set[int] = set()
        for shards in zip(*alexa_plans.values()):
            if not all(shard.cached for shard in shards):
                continue
            share = self.cache.get("alexa-share", _share_key(shards))
            if share is None:
                continue
            index = shards[0].index
            self.shares[index] = list(share)
            by_variant = dict(zip(self.variants, shards))
            if all(
                self._cached(_alexa_key(by_variant[variant], model, name,
                                        share))
                for variant, name, model in self.alexa_datasets
            ):
                lazy.add(index)
        return ha_plan, {
            label: [
                replace(shard, lazy=True) if shard.index in lazy else shard
                for shard in plan
            ]
            for label, plan in alexa_plans.items()
        }

    def har_landed(self, shard: CrawlShard, corpus) -> None:
        models = self.har_models
        if corpus is ON_DISK:
            models = [
                model for model in models
                if not self._load(f"har-{model.value}", shard,
                                  _har_key(shard, model))
            ]
            corpus = self.crawls.part("httparchive", shard) if models else None
        if corpus is None:
            return
        for model in models:
            name = f"har-{model.value}"
            plan = corpus.classify_plan(
                model, name, crawl_plan=[shard], cache=self.cache
            )
            self._run(name, shard, plan, partial(corpus.classify, model=model))

    def alexa_landed(self, variant: str, shard: CrawlShard, run) -> None:
        landed = self.alexa.setdefault(shard.index, {})
        landed[variant] = (shard, run)
        if len(landed) < len(self.variants):
            return
        del self.alexa[shard.index]
        if all(run is ON_DISK for _, run in landed.values()):
            sites = self.shares[shard.index]
        else:
            # "We review the intersection of websites for comparability."
            sites = sorted(set.intersection(*(
                set(run.reachable_sites) if run is not None else set()
                for _, run in landed.values()
            )))
            self._store_share(shard.index, landed, sites)
            self.shares[shard.index] = sites
        for variant, name, model in self.alexa_datasets:
            crawl_shard, run = landed[variant]
            if run is ON_DISK:
                key = _alexa_key(crawl_shard, model, name, sites)
                if self._load(name, crawl_shard, key):
                    continue
                run = self.crawls.part(variant, crawl_shard)
            if run is None:
                continue
            plan = run.classify_plan(
                model, name, sites=sites, crawl_plan=[crawl_shard],
                cache=self.cache,
            )
            self._run(name, crawl_shard, plan,
                      partial(run.classify, model=model))

    def _store_share(self, index: int, landed: dict, sites: list[str]) -> None:
        """Cache a computed share unless its sidecar was read at plan
        time or a variant's shard was quarantined."""
        if self.cache is None or index in self.shares or any(
            run is None for _, run in landed.values()
        ):
            return
        shards = [landed[variant][0] for variant in self.variants]
        self.cache.put("alexa-share", _share_key(shards), tuple(sites))

    def _cached(self, key: str) -> bool:
        return self.cache.contains("classify", key)

    def _load(self, name: str, crawl_shard: CrawlShard, key: str) -> bool:
        """Whether a lazy crawl shard's classify node loaded by ``key``."""
        dataset = self.cache.get("classify", key)
        if dataset is None:
            return False
        window = self._window()
        self.runlog.note_cached(f"classify-{name}", CrawlShard(
            index=crawl_shard.index, domains=(), key=key, cached=True,
        ))
        window.land()
        self.partials.setdefault(name, {})[crawl_shard.index] = dataset
        return True

    def _window(self) -> StageWindow:
        if self.window is None:
            self.window = self.timings.open("classify-datasets")
        return self.window

    def _run(self, name: str, crawl_shard: CrawlShard,
             plan: list[CrawlShard], classify: Callable) -> None:
        window = self._window()
        self.items += pending_items(plan)
        dataset = classify(
            name=name, plan=plan, asdb=self.asdb, cache=self.cache,
            runlog=self.runlog,
        )
        window.land()
        if not self.runlog.is_quarantined(plan[0].key):
            self.partials.setdefault(name, {})[crawl_shard.index] = dataset

    def finish(self) -> dict[str, ClassifiedDataset]:
        """Every dataset, its partials merged in plan order."""
        self._window().close(items=self.items)
        names = [(f"har-{model.value}", model) for model in self.har_models]
        names += [(name, model) for _, name, model in self.alexa_datasets]
        return {
            name: merge_classified_datasets(name, model, [
                dataset for _, dataset in
                sorted(self.partials.get(name, {}).items())
            ])
            for name, model in names
        }


def _har_key(shard: CrawlShard, model: LifetimeModel) -> str:
    """The key of a HAR classify node (what :meth:`HarCorpus.classify_plan`
    hashes): its crawl shard's key alone."""
    return classify_cache_key("har", shard, model, f"har-{model.value}")


def _alexa_key(shard: CrawlShard, model: LifetimeModel, name: str,
               sites: Sequence[str]) -> str:
    """The key of an Alexa classify node over ``shard``'s share
    ``sites`` (what :meth:`AlexaRun.classify_plan` hashes)."""
    return classify_cache_key("alexa", shard, model, name, tuple(sites))


class _Crawls:
    """A study's crawls by label (``httparchive``, then its variants).

    The run lands each crawl's parts here; a lazy shard's part stays
    :data:`ON_DISK` until something reads it.  :meth:`part` then runs
    the shard through :func:`run_stages` on a serial executor: a cache
    hit loads it, and a shard gone from the cache or failing to
    unpickle is evicted, counted and recrawled under ``runlog``
    (detached from the closed journal).  A crawl is deterministic, so
    either way the part equals the cold run's.
    """

    def __init__(self, stages: dict[str, ShardStage],
                 folds: dict[str, Callable[[list], Any]],
                 cache: StudyCache | None, runlog: RunContext) -> None:
        self.stages = stages
        self.folds = folds
        self.cache = cache
        self.runlog = runlog
        #: Label -> the parts the run landed, in plan order.
        self.parts: dict[str, list] = {}
        #: ``(label, shard index)`` -> a lazy shard's loaded part.
        self.loaded: dict[tuple[str, int], Any] = {}

    def part(self, label: str, shard: CrawlShard):
        """One lazy shard's part (``None``: quarantined on recrawl)."""
        if (label, shard.index) not in self.loaded:
            stage = self.stages[label]
            ((part,),) = run_stages(
                [replace(stage, plan=[replace(shard, lazy=False)])],
                executor=SerialExecutor(), cache=self.cache,
                runlog=self.runlog,
            )
            self.loaded[label, shard.index] = part
        return self.loaded[label, shard.index]

    def fold(self, label: str):
        """The crawl ``label`` folded from every part (``None``: not
        crawled)."""
        if label not in self.stages:
            return None
        return self.folds[label]([
            self.part(label, shard) if part is ON_DISK else part
            for shard, part in zip(self.stages[label].plan, self.parts[label])
        ])


@dataclass
class Study:
    """All measurement artefacts of one reproduction run.

    The crawl outputs (:attr:`har_corpus`, :attr:`alexa_run`,
    :attr:`alexa_nofetch_run`) fold from their shards on first read,
    loading any shard the run left on disk.  The two Alexa runs are
    ``None`` when the config's ``alexa_variants`` excludes them (sweep
    ablations); the default config always produces both.
    """

    config: StudyConfig
    #: The world's :class:`~repro.web.ecosystem.WorldIndex`: all the
    #: run itself read from the world (see :attr:`ecosystem`).
    index: WorldIndex
    #: The sorted sites reachable in every crawled Alexa run.
    alexa_common_sites: list[str]
    datasets: dict[str, ClassifiedDataset]
    crawls: _Crawls = field(repr=False, compare=False)
    timings: StageTimings = field(default_factory=StageTimings)
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
        resume: bool = False,
        strict: bool = False,
        observer: Callable[[dict], None] | None = None,
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
        shard failure, and ``observer`` sees every journal record after
        its append.  A run that raises leaves its journal without a
        ``run-finish`` record, so it stays resumable.
        """
        config = config or StudyConfig()
        config.validate()
        if cache is None and (resume or observer is not None):
            raise ValueError("resume and observer require a cache to journal into")
        owns_executor = executor is None
        executor = executor if executor is not None else config.make_executor()
        timings = timings if timings is not None else StageTimings()
        runlog = None
        if cache is not None:
            runlog = RunContext.for_study(
                config, cache, resume=resume, strict=strict, observer=observer
            )
        try:
            with collector_paused():
                study = cls._run(
                    config, executor, timings, cache,
                    runlog or RunContext.null(),
                )
            if runlog is not None:
                study.coverage = runlog.finish()
            return study
        finally:
            if runlog is not None:
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
        # The run plans, keys, samples and classifies from the world
        # index alone; the full world is built only when a crawl shard
        # misses the cache (or when the index itself is not cached).
        eco_config = config.ecosystem_config()
        world_cached = world_index_is_cached(eco_config, cache)
        with timings.stage(
            "generate-ecosystem", items=0 if world_cached else config.n_sites
        ):
            index = world_index_for(eco_config, cache)

        # The plan: every crawl shard of the study, keyed and probed
        # up front (one shard per crawl on the default config).  The
        # same plans drive the crawls, the classify nodes that hang off
        # them and the item accounting, so the three cannot drift.
        ha_crawler = HttpArchiveCrawler(
            world=index, seed=config.seed + 100,
            fault_profile=config.fault_profile,
        )
        ha_domains = index.httparchive_sample(
            config.ha_sample_share, seed=config.seed + 1
        )
        ha_plan = ha_crawler.plan_shards(
            ha_domains, shards=config.shards, cache=cache
        )
        alexa_count = max(1, int(config.n_sites * config.alexa_share))
        alexa_domains = index.alexa_list(alexa_count)
        alexa_crawler = AlexaCrawler(
            world=index, seed=config.seed + 200,
            fault_profile=config.fault_profile,
        )
        # The Fetch-compliant run and the privacy-mode-patched one.
        variants = {
            label: variant for label, variant in _ALEXA_VARIANTS.items()
            if label in config.alexa_variants
        }
        alexa_plans = {
            label: alexa_crawler.plan_shards(
                alexa_domains, variant, shards=config.shards, cache=cache,
            )
            for label, variant in variants.items()
        }

        # The crawls run as one stream on the executor; each crawl
        # shard is classified in this process as soon as it lands, and
        # a shard whose classify nodes are all cached stays on disk.
        nodes = _ClassifyNodes(
            config, list(variants), index, timings, cache, runlog
        )
        ha_plan, alexa_plans = nodes.plan(ha_plan, alexa_plans)
        labels = ["httparchive", *variants]
        stages = [ha_crawler.stage(ha_plan)] + [
            alexa_crawler.stage(alexa_plans[label], variant)
            for label, variant in variants.items()
        ]
        nodes.crawls = crawls = _Crawls(
            dict(zip(labels, stages)),
            {"httparchive": partial(ha_crawler.fold, ha_plan)} | {
                label: partial(
                    alexa_crawler.fold, alexa_plans[label], variant=variant
                )
                for label, variant in variants.items()
            },
            cache, runlog.detached(),
        )
        windows = [timings.open("crawl-httparchive",
                                items=pending_items(ha_plan))] + [
            timings.open(f"crawl-{variant.name}",
                         items=pending_items(alexa_plans[label]))
            for label, variant in variants.items()
        ]
        handlers = [nodes.har_landed] + [
            partial(nodes.alexa_landed, label) for label in variants
        ]

        def land(stage: int, shard: CrawlShard, part) -> None:
            windows[stage].land()
            handlers[stage](shard, part)

        parts = run_stages(
            stages, executor=executor, cache=cache, runlog=runlog,
            on_land=land,
        )
        for window in windows:
            window.close()
        datasets = nodes.finish()
        crawls.parts = dict(zip(labels, parts))
        if "har-endless" in datasets and "alexa-endless" in datasets:
            with timings.stage("overlap"):
                har_overlap, alexa_overlap = overlap_datasets(
                    datasets["har-endless"], datasets["alexa-endless"]
                )
                datasets["har-overlap"] = har_overlap
                datasets["alexa-overlap"] = alexa_overlap

        return cls(
            config=config,
            index=index,
            alexa_common_sites=sorted(
                site for share in nodes.shares.values() for site in share
            ),
            datasets=datasets,
            crawls=crawls,
            timings=timings,
        )

    @cached_property
    def har_corpus(self) -> HarCorpus:
        """The HTTP Archive corpus (folded on first read)."""
        return self.crawls.fold("httparchive")

    @cached_property
    def alexa_run(self) -> AlexaRun | None:
        """The Fetch-compliant Alexa run (folded on first read)."""
        return self.crawls.fold("fetch")

    @cached_property
    def alexa_nofetch_run(self) -> AlexaRun | None:
        """The privacy-mode-patched Alexa run (folded on first read)."""
        return self.crawls.fold("nofetch")

    # ------------------------------------------------------------------
    @property
    def ecosystem(self) -> Ecosystem:
        """The full world, resolved on use.

        The run itself reads only :attr:`index`; the DNS study and the
        renderers that inspect the world resolve it here, building it
        when this process does not hold it.
        """
        return ecosystem_for(self.config.ecosystem_config())

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
