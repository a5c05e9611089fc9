"""Merging per-shard partial datasets equals aggregating the whole.

``merge_classified_datasets`` folds the partials' reports and
attribution indexes instead of replaying every site.  For any split of
a dataset's sites into shards, the merge must equal
``aggregate_classifications`` over the shards' concatenated pairs:
every value, every dict and Counter key order, the order of
``redundant_per_site`` and the AS attribution, on the default world
and on the fault and HTTP/3 axes.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass

import pytest

from repro.analysis.study import Study, StudyConfig
from repro.core.attribution import AttributionIndex
from repro.crawl.classify import (
    aggregate_classifications,
    merge_classified_datasets,
)

CONFIGS = {
    "default": {},
    "chaos": {"fault_profile": "chaos"},
    "h3-broad": {"h3_profile": "broad"},
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def study(request) -> Study:
    return Study.run(StudyConfig(
        seed=7, n_sites=80, dns_study_days=0.25, **CONFIGS[request.param]
    ))


def _ordered(value):
    """``value`` as nested lists that keep every mapping's key order."""
    if isinstance(value, dict):  # Counter and defaultdict included
        return [(key, _ordered(item)) for key, item in value.items()]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_ordered(item) for item in value]
    if is_dataclass(value):
        return (type(value).__name__, [
            (field.name, _ordered(getattr(value, field.name)))
            for field in fields(value)
        ])
    return value


def _shape(dataset) -> tuple:
    """Everything a fold decides, classifications compared by identity."""
    return (
        dataset.name,
        dataset.model,
        _ordered(dataset.report),
        _ordered(dataset.attribution),
        [(site, id(item)) for site, item in dataset.classifications.items()],
        dataset.filter_stats,
    )


@pytest.mark.parametrize("n_shards", [1, 2, 3, 4, 5])
def test_merge_equals_the_concatenated_aggregate(study, n_shards):
    asdb = study.index.asdb
    for key, whole in study.datasets.items():
        pairs = list(whole.classifications.items())
        # Interleaved shards, so each partial sees its keys in an order
        # of first appearance unlike the whole's.
        shards = [pairs[index::n_shards] for index in range(n_shards)]
        partials = [
            aggregate_classifications(whole.name, whole.model, shard, asdb=asdb)
            for shard in shards
        ]
        before = [_shape(partial) for partial in partials]
        merged = merge_classified_datasets(whole.name, whole.model, partials)
        expected = aggregate_classifications(
            whole.name, whole.model,
            [pair for shard in shards for pair in shard], asdb=asdb,
        )
        assert _shape(merged) == _shape(expected), key
        # The partials are read, never changed or aliased.
        assert [_shape(partial) for partial in partials] == before, key


def test_the_comparison_sees_as_attribution(study):
    """``ip_as_*`` is only compared if some dataset attributes ASes."""
    assert any(
        dataset.attribution.ip_as_connections
        for dataset in study.datasets.values()
    )


def test_cert_domain_issuer_keeps_the_last_write():
    """A world never reissues a domain across sites, so the studies
    above cannot tell first from last write; the rule still holds."""
    first, second, merged = (AttributionIndex() for _ in range(3))
    first.cert_domain_issuer.update({"a.com": "CA1", "b.com": "CA2"})
    second.cert_domain_issuer.update({"c.com": "CA3", "a.com": "CA4"})
    merged.merge(first)
    merged.merge(second)
    assert list(merged.cert_domain_issuer.items()) == [
        ("a.com", "CA4"), ("b.com", "CA2"), ("c.com", "CA3"),
    ]
