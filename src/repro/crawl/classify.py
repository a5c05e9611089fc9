"""Turning raw measurements into classified datasets.

A *dataset* in the paper's sense is one column group of Table 1: a set
of per-site session records evaluated under one lifetime model.  This
module owns the shared fold: classify every site, aggregate the
corpus report, and build the attribution index (origins, issuers, ASes).

Both crawl outputs classify through one planner and one driver; they
differ only in their worker, which for HAR input sanitises (§4.3) first.

Classification always runs in the calling (study) process, whatever
executor the crawls use.  It is cheap next to a crawl, and shipping a
site's records to a pool worker and its classification back costs the
parent more than classifying inline, so no pool can make it pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from repro.core.attribution import AttributionIndex
from repro.core.classifier import SiteClassification, classify_site
from repro.core.report import CorpusReport
from repro.core.session import LifetimeModel, SessionRecord
from repro.crawl.shards import CrawlShard, run_sharded_stage
from repro.har.reader import FilterStats
from repro.net.asdb import AsDatabase
from repro.runtime import SerialExecutor
from repro.store import stable_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runlog import RunContext
    from repro.store import StudyCache

__all__ = [
    "ClassifiedDataset",
    "classify_dataset",
    "aggregate_classifications",
    "merge_classified_datasets",
    "classify_cache_key",
    "plan_classification",
    "run_classification",
]

T = TypeVar("T")

#: What a classification worker returns for one site: its
#: classification and, for sanitised (HAR) input, the §4.3 counters.
Outcome = tuple[SiteClassification, FilterStats | None]


@dataclass
class ClassifiedDataset:
    """One fully classified corpus under one lifetime model."""

    name: str
    model: LifetimeModel
    report: CorpusReport
    attribution: AttributionIndex
    classifications: dict[str, SiteClassification] = field(default_factory=dict)
    #: The §4.3 sanitisation counters of a HAR dataset; ``None`` for
    #: NetLog datasets, which are not sanitised.
    filter_stats: FilterStats | None = None

    def subset(self, sites: Iterable[str], *, name: str) -> "ClassifiedDataset":
        """Re-aggregate over a site subset (the overlap analyses)."""
        wanted = set(sites)
        picked = {
            site: classification
            for site, classification in self.classifications.items()
            if site in wanted
        }
        return aggregate_classifications(name, self.model, picked.items())


def classify_item(item: tuple[str, list[SessionRecord], str]) -> Outcome:
    """Classify one site's NetLog records."""
    site, records, model_value = item
    return classify_site(site, records, model=LifetimeModel(model_value)), None


def aggregate_classifications(
    name: str,
    model: LifetimeModel,
    site_classifications: Iterable[tuple[str, SiteClassification]],
    *,
    asdb: AsDatabase | None = None,
) -> ClassifiedDataset:
    """Fold per-site classifications into one dataset.

    Aggregation is order-sensitive only in its iteration order, so it
    runs in the order the sites were submitted.
    """
    report = CorpusReport(name=name)
    attribution = AttributionIndex()
    classifications: dict[str, SiteClassification] = {}
    for site, classification in site_classifications:
        classifications[site] = classification
        report.add_site(classification)
        attribution.add_site(classification)
        if asdb is not None:
            attribution.attribute_ases(asdb, classification)
    return ClassifiedDataset(
        name=name,
        model=model,
        report=report,
        attribution=attribution,
        classifications=classifications,
    )


def merge_classified_datasets(
    name: str,
    model: LifetimeModel,
    partials: Iterable[ClassifiedDataset],
) -> ClassifiedDataset:
    """Fold per-shard partial datasets into the whole.

    Merges the partials' reports and attribution indexes in order
    (:meth:`CorpusReport.merge`, :meth:`AttributionIndex.merge`)
    instead of replaying their sites, and folding a disjoint site
    partition reproduces the monolithic aggregate, key order included.  A lone partial *is* the whole and is returned as
    is — the 1-shard path, byte for byte.  Per-shard ``filter_stats``
    (the HAR sanitisation counters) merge additively when present.
    """
    partials = list(partials)
    if len(partials) == 1:
        return partials[0]
    dataset = aggregate_classifications(name, model, ())
    for partial in partials:
        dataset.report.merge(partial.report)
        dataset.attribution.merge(partial.attribution)
        dataset.classifications.update(partial.classifications)
    dataset.filter_stats = _sum_filter_stats(
        partial.filter_stats for partial in partials
    )
    return dataset


def _sum_filter_stats(
    stats: Iterable[FilterStats | None],
) -> FilterStats | None:
    """The sum of the counters present; ``None`` when none is."""
    total = None
    for part in stats:
        if part is not None:
            total = total or FilterStats()
            total.merge(part)
    return total


def classify_cache_key(
    kind: str, shard: CrawlShard, model: LifetimeModel, name: str, *subset
) -> str | None:
    """Cache key for classifying one ``kind`` crawl shard as ``name``.

    ``None`` for an uncached shard.  An Alexa key also hashes its site
    subset (``None`` for every reachable site); a HAR key has none.
    """
    if shard.key is None:
        return None
    return stable_key(f"classify-{kind}", shard.key, model.value, name, *subset)


def plan_classification(
    crawled: Iterable[str],
    classifiable: list[str],
    provenance: str | None,
    keyer: Callable[[CrawlShard, list[str]], str | None],
    *,
    sites: Sequence[str] | None = None,
    crawl_plan: Sequence[CrawlShard] | None = None,
    cache: "StudyCache | None" = None,
) -> list[CrawlShard]:
    """The classification shards of one crawl output.

    One shard per crawl shard of ``crawl_plan`` (default: one shard
    over every ``crawled`` site, keyed on ``provenance``), over its
    share of ``sites`` (default: ``classifiable``, the sites with data)
    less the sites without data.  Only with a ``cache`` is a shard
    keyed, by ``keyer(crawl shard, its share of sites)``.
    """
    if crawl_plan is None:
        crawl_plan = [
            CrawlShard(index=0, domains=tuple(crawled), key=provenance)
        ]
    with_data = set(classifiable)
    plan = []
    for shard in crawl_plan:
        members = set(shard.domains)
        chosen = [
            site for site in (classifiable if sites is None else sites)
            if site in members
        ]
        key = keyer(shard, chosen) if cache is not None else None
        plan.append(CrawlShard(
            index=shard.index,
            domains=tuple(site for site in chosen if site in with_data),
            key=key,
            cached=key is not None and cache.contains("classify", key),
        ))
    return plan


def run_classification(
    name: str,
    model: LifetimeModel,
    plan: Sequence[CrawlShard],
    worker: Callable[[T], Outcome],
    items: Callable[[CrawlShard], list[T]],
    *,
    asdb: AsDatabase | None = None,
    cache: "StudyCache | None" = None,
    runlog: "RunContext | None" = None,
) -> ClassifiedDataset:
    """Classify the shards of ``plan`` as dataset ``name``.

    Runs as stage ``classify-<name>`` of the shard driver, in this
    process: each shard loads from ``cache`` under its key or maps
    ``worker`` over ``items(shard)``, one item per site in shard order,
    and becomes a partial dataset; a ``runlog`` journals, retries and
    quarantines the shards like the crawls.  The partials merge into
    the whole.
    """

    def part(shard: CrawlShard, outcomes: list[Outcome]) -> ClassifiedDataset:
        dataset = aggregate_classifications(
            name, model,
            zip(shard.domains, [classified for classified, _ in outcomes]),
            asdb=asdb,
        )
        dataset.filter_stats = _sum_filter_stats(
            stats for _, stats in outcomes
        )
        return dataset

    return run_sharded_stage(
        f"classify-{name}", "classify", plan, worker, items, part,
        lambda parts: merge_classified_datasets(name, model, parts),
        executor=SerialExecutor(), cache=cache, runlog=runlog,
    )


def classify_dataset(
    name: str,
    site_records: dict[str, list[SessionRecord]],
    *,
    model: LifetimeModel,
    asdb: AsDatabase | None = None,
) -> ClassifiedDataset:
    """Classify every site of a corpus and aggregate."""
    return run_classification(
        name, model, [CrawlShard(index=0, domains=tuple(site_records))],
        classify_item,
        lambda shard: [
            (site, site_records[site], model.value) for site in shard.domains
        ],
        asdb=asdb,
    )
