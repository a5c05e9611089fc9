"""Property-based tests for the §4.1 classifier."""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.causes import Cause
from repro.core.classifier import classify_site
from repro.core.session import LifetimeModel, RequestSummary, SessionRecord

_SAN_SETS = (
    ("*.example.com",),
    ("a.example.com",),
    ("b.example.com", "a.example.com"),
    ("c.other.net",),
)
_DOMAINS = ("a.example.com", "b.example.com", "c.other.net")
_IPS = ("10.0.0.1", "10.0.0.2")

_record_spec = st.tuples(
    st.sampled_from(_DOMAINS),
    st.sampled_from(_IPS),
    st.sampled_from(_SAN_SETS),
    st.floats(min_value=0.0, max_value=10.0),  # request duration
)


def _build_records(specs):
    records = []
    ids = itertools.count(1)
    for index, (domain, ip, sans, duration) in enumerate(specs):
        start = float(index)
        records.append(
            SessionRecord(
                connection_id=next(ids),
                domain=domain,
                ip=ip,
                port=443,
                sans=sans,
                issuer="CA",
                start=start,
                end=None,
                requests=(
                    RequestSummary(domain=domain, status=200,
                                   finished_at=start + duration),
                ),
            )
        )
    return records


class TestClassifierProperties:
    @given(st.lists(_record_spec, min_size=1, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_structural_invariants(self, specs):
        records = _build_records(specs)
        result = classify_site("s", records, model=LifetimeModel.ENDLESS)
        # The first connection can never be redundant.
        first_id = records[0].connection_id
        assert all(hit.record.connection_id != first_id for hit in result.hits)
        # Redundant count bounded by n-1.
        assert result.redundant_count <= max(0, len(records) - 1)
        # Each (connection, cause) pair appears at most once.
        pairs = [(hit.record.connection_id, hit.cause) for hit in result.hits]
        assert len(pairs) == len(set(pairs))
        # Witnesses always precede their redundant connection.
        for hit in result.hits:
            assert hit.previous.start <= hit.record.start
            assert hit.previous.connection_id != hit.record.connection_id

    @given(st.lists(_record_spec, min_size=1, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_immediate_hits_subset_of_endless(self, specs):
        """Shorter lifetimes can only remove redundancy, never add it."""
        records = _build_records(specs)
        endless = classify_site("s", records, model=LifetimeModel.ENDLESS)
        immediate = classify_site("s", records, model=LifetimeModel.IMMEDIATE)
        endless_pairs = {(h.record.connection_id, h.cause)
                         for h in endless.hits}
        immediate_pairs = {(h.record.connection_id, h.cause)
                           for h in immediate.hits}
        assert immediate_pairs <= endless_pairs

    @given(st.lists(_record_spec, min_size=1, max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_cause_definitions(self, specs):
        """Each hit's facts must match its cause's definition (§3)."""
        records = _build_records(specs)
        result = classify_site("s", records, model=LifetimeModel.ENDLESS)
        for hit in result.hits:
            same_ip = hit.previous.ip == hit.record.ip
            covers = hit.previous.covers(hit.record.domain)
            same_domain = hit.previous.domain == hit.record.domain
            if hit.cause is Cause.CERT:
                assert same_ip and not covers
            elif hit.cause is Cause.IP:
                assert not same_ip and covers and not same_domain
            elif hit.cause is Cause.CRED:
                assert (same_ip and covers) or (not same_ip and same_domain)

    @given(st.lists(_record_spec, min_size=1, max_size=12))
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, specs):
        records = _build_records(specs)
        first = classify_site("s", records, model=LifetimeModel.ENDLESS)
        second = classify_site("s", records, model=LifetimeModel.ENDLESS)
        assert [(h.record.connection_id, h.cause, h.previous.connection_id)
                for h in first.hits] == [
            (h.record.connection_id, h.cause, h.previous.connection_id)
            for h in second.hits
        ]


class TestClassifierEdgeCases:
    """Degenerate corpus shapes the executor refactor can produce:
    empty site lists, sites with no records, single-site batches and
    chunk sizes exceeding the input."""

    def test_empty_record_list(self):
        result = classify_site("s", [], model=LifetimeModel.ENDLESS)
        assert result.h2_connections == 0
        assert result.redundant_count == 0
        assert result.hits == []

    def test_empty_site_mapping(self):
        from repro.crawl.classify import classify_dataset

        dataset = classify_dataset("empty", {}, model=LifetimeModel.ENDLESS)
        assert dataset.report.total_sites == 0
        assert dataset.classifications == {}

    @given(
        st.lists(
            st.tuples(_record_spec, st.integers(min_value=0, max_value=3)),
            min_size=0, max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_dataset_fold_is_shard_partition_invariant(self, labelled):
        """Any partition of the sites into classify shards folds to the
        same dataset as one shard over every site."""
        from repro.crawl.classify import (
            classify_dataset,
            classify_item,
            run_classification,
        )
        from repro.crawl.shards import CrawlShard

        site_records = {
            f"site{index}": _build_records([spec])
            for index, (spec, _) in enumerate(labelled)
        }
        shard_of = {
            f"site{index}": shard for index, (_, shard) in enumerate(labelled)
        }
        baseline = classify_dataset("d", site_records,
                                    model=LifetimeModel.ENDLESS)
        plan = [
            CrawlShard(index=shard, domains=tuple(
                site for site in site_records if shard_of[site] == shard
            ))
            for shard in sorted(set(shard_of.values()))
        ]
        sharded = run_classification(
            "d", LifetimeModel.ENDLESS, plan, classify_item,
            lambda shard: [
                (site, site_records[site], LifetimeModel.ENDLESS.value)
                for site in shard.domains
            ],
        )

        def summary(dataset):
            return (
                sorted(dataset.classifications),
                dataset.report.total_sites,
                dataset.report.h2_connections,
                dataset.report.redundant_connections,
                {site: c.redundant_count
                 for site, c in dataset.classifications.items()},
            )

        assert summary(sharded) == summary(baseline)

    @given(st.lists(_record_spec, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_single_site_batch_matches_direct_classification(self, specs):
        """A one-site dataset is exactly classify_site of that site."""
        from repro.crawl.classify import classify_dataset

        records = _build_records(specs)
        dataset = classify_dataset("d", {"only": records},
                                   model=LifetimeModel.ENDLESS)
        direct = classify_site("only", records, model=LifetimeModel.ENDLESS)
        verdict = dataset.classifications["only"]
        assert verdict.redundant_count == direct.redundant_count
        assert [(h.record.connection_id, h.cause) for h in verdict.hits] == (
            [(h.record.connection_id, h.cause) for h in direct.hits]
        )
