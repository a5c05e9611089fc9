"""Turning raw measurements into classified datasets.

A *dataset* in the paper's sense is one column group of Table 1: a set
of per-site session records evaluated under one lifetime model.  This
module owns the shared fold: classify every site, aggregate the
corpus report, and build the attribution index (origins, issuers, ASes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.attribution import AttributionIndex
from repro.core.classifier import SiteClassification, classify_site
from repro.core.report import CorpusReport
from repro.core.session import LifetimeModel, SessionRecord
from repro.net.asdb import AsDatabase
from repro.runtime import Executor, SerialExecutor

__all__ = [
    "ClassifiedDataset",
    "classify_dataset",
    "aggregate_classifications",
    "merge_classified_datasets",
]


@dataclass
class ClassifiedDataset:
    """One fully classified corpus under one lifetime model."""

    name: str
    model: LifetimeModel
    report: CorpusReport
    attribution: AttributionIndex
    classifications: dict[str, SiteClassification] = field(default_factory=dict)

    def subset(self, sites: Iterable[str], *, name: str) -> "ClassifiedDataset":
        """Re-aggregate over a site subset (the overlap analyses)."""
        picked = {
            site: classification
            for site, classification in self.classifications.items()
            if site in set(sites)
        }
        report = CorpusReport(name=name)
        attribution = AttributionIndex()
        for classification in picked.values():
            report.add_site(classification)
            attribution.add_site(classification)
        out = ClassifiedDataset(
            name=name,
            model=self.model,
            report=report,
            attribution=attribution,
            classifications=picked,
        )
        return out


def classify_item(
    item: tuple[str, list[SessionRecord], str],
) -> SiteClassification:
    """Classify one site (runs inside an executor worker)."""
    site, records, model_value = item
    return classify_site(site, records, model=LifetimeModel(model_value))


def aggregate_classifications(
    name: str,
    model: LifetimeModel,
    site_classifications: Iterable[tuple[str, SiteClassification]],
    *,
    asdb: AsDatabase | None = None,
) -> ClassifiedDataset:
    """Fold per-site classifications into one dataset.

    Aggregation is cheap and order-sensitive only in its iteration
    order, so it always runs serially in the caller, in the order the
    sites were submitted — which keeps the result independent of the
    executor that produced the classifications.
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
    *,
    asdb: AsDatabase | None = None,
) -> ClassifiedDataset:
    """Fold per-shard partial datasets into the whole.

    Rebuilds the report and attribution index from the concatenated
    per-site classifications, so the merge is a pure function of the
    partials' contents: folding a disjoint site partition reproduces
    the monolithic aggregate.  A lone partial *is* the whole and is
    returned as is — the 1-shard path, byte for byte.  Per-shard
    ``filter_stats`` (the HAR sanitisation counters) merge additively
    when present.
    """
    partials = list(partials)
    if len(partials) == 1:
        return partials[0]
    pairs: list[tuple[str, SiteClassification]] = []
    stats = None
    for partial in partials:
        pairs.extend(partial.classifications.items())
        partial_stats = getattr(partial, "filter_stats", None)
        if partial_stats is not None:
            if stats is None:
                stats = type(partial_stats)()
            stats.merge(partial_stats)
    dataset = aggregate_classifications(name, model, pairs, asdb=asdb)
    if stats is not None:
        dataset.filter_stats = stats  # type: ignore[attr-defined]
    return dataset


def classify_dataset(
    name: str,
    site_records: dict[str, list[SessionRecord]],
    *,
    model: LifetimeModel,
    asdb: AsDatabase | None = None,
    executor: Executor | None = None,
) -> ClassifiedDataset:
    """Classify every site of a corpus and aggregate."""
    executor = executor or SerialExecutor()
    sites = list(site_records)
    items = [(site, site_records[site], model.value) for site in sites]
    classified = executor.map_sites(classify_item, items)
    return aggregate_classifications(
        name, model, zip(sites, classified), asdb=asdb
    )
