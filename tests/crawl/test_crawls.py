"""Tests for the crawl harnesses."""

from __future__ import annotations

import pytest

from repro.core.session import LifetimeModel
from repro.crawl.alexa import AlexaCrawler, AlexaVariant
from repro.crawl.classify import classify_dataset
from repro.crawl.httparchive import HttpArchiveCrawler
from repro.crawl.overlap import overlap_datasets, overlap_sites
from repro.har.writer import HarNoiseConfig


@pytest.fixture(scope="module")
def ha_corpus(small_ecosystem):
    crawler = HttpArchiveCrawler(world=small_ecosystem.index, seed=11)
    domains = small_ecosystem.index.httparchive_sample(0.6, seed=1)[:40]
    return crawler.crawl(domains)


@pytest.fixture(scope="module")
def alexa_runs(small_ecosystem):
    crawler = AlexaCrawler(world=small_ecosystem.index, seed=23)
    domains = small_ecosystem.index.alexa_list(40)
    run = crawler.run(domains, AlexaVariant("t-fetch"))
    patched = crawler.run(domains, AlexaVariant(
        "t-nofetch", ignore_privacy_mode=True, run_offset=100_000.0
    ))
    return run, patched


class TestHttpArchiveCrawler:
    def test_one_har_per_reachable_site(self, ha_corpus):
        assert len(ha_corpus.hars) + len(ha_corpus.unreachable) == 40
        assert len(ha_corpus.hars) > 30

    def test_har_titles_match_domains(self, ha_corpus):
        for domain, har in ha_corpus.hars.items():
            assert domain in har.page.title

    def test_classification_models_ordered(self, ha_corpus, small_ecosystem):
        endless = ha_corpus.classify(model=LifetimeModel.ENDLESS,
                                     asdb=small_ecosystem.asdb)
        immediate = ha_corpus.classify(model=LifetimeModel.IMMEDIATE,
                                       asdb=small_ecosystem.asdb)
        assert endless.report.redundant_connections >= (
            immediate.report.redundant_connections
        )
        assert endless.report.h2_connections == immediate.report.h2_connections

    def test_noise_is_filtered_and_counted(self, small_ecosystem):
        crawler = HttpArchiveCrawler(
            world=small_ecosystem.index, seed=12,
            noise=HarNoiseConfig(h3_socket_zero=0.2),
        )
        corpus = crawler.crawl(small_ecosystem.index.alexa_list(10))
        dataset = corpus.classify(model=LifetimeModel.ENDLESS)
        assert dataset.filter_stats.socket_id_zero > 0

    def test_sharded_filter_stats_add_up(self, small_ecosystem):
        crawler = HttpArchiveCrawler(
            world=small_ecosystem.index, seed=12,
            noise=HarNoiseConfig(h3_socket_zero=0.2),
        )
        domains = small_ecosystem.index.alexa_list(10)
        plan = crawler.plan_shards(domains, shards=3)
        corpus = crawler.crawl(domains, plan=plan)
        whole = corpus.classify(model=LifetimeModel.ENDLESS)
        sharded = corpus.classify(
            model=LifetimeModel.ENDLESS,
            plan=corpus.classify_plan(LifetimeModel.ENDLESS, crawl_plan=plan),
        )
        assert len(plan) > 1
        assert sharded.filter_stats == whole.filter_stats

    def test_deterministic(self, small_ecosystem):
        domains = small_ecosystem.index.alexa_list(8)
        a = HttpArchiveCrawler(world=small_ecosystem.index, seed=5).crawl(domains)
        b = HttpArchiveCrawler(world=small_ecosystem.index, seed=5).crawl(domains)
        for domain in a.hars:
            assert a.hars[domain] == b.hars[domain]


class TestAlexaCrawler:
    def test_netlog_records_have_actual_lifetimes(self, alexa_runs):
        run, _ = alexa_runs
        some_records = [
            record
            for measurement in run.measurements.values()
            for record in measurement.records
        ]
        assert some_records
        assert all(record.end is not None for record in some_records)

    def test_runs_share_unreachable_sites_mostly(self, alexa_runs):
        run, patched = alexa_runs
        down_a = {d for d, m in run.measurements.items() if m.unreachable}
        down_b = {d for d, m in patched.measurements.items() if m.unreachable}
        # Permanent failures dominate, so the sets overlap heavily.
        assert down_a & down_b == down_a or down_a & down_b == down_b or (
            len(down_a & down_b) >= max(0, min(len(down_a), len(down_b)) - 2)
        )

    def test_patched_run_has_no_privacy_mode_sessions(self, alexa_runs):
        _, patched = alexa_runs
        for measurement in patched.measurements.values():
            for record in measurement.records:
                assert record.privacy_mode is not True

    def test_patched_run_removes_cred(self, alexa_runs, small_ecosystem):
        from repro.core.causes import Cause

        run, patched = alexa_runs
        common = sorted(set(run.reachable_sites) & set(patched.reachable_sites))
        with_fetch = run.classify(model=LifetimeModel.ACTUAL, sites=common)
        without = patched.classify(model=LifetimeModel.ACTUAL, sites=common)
        assert without.report.by_cause[Cause.CRED].connections == 0
        assert (
            without.report.redundant_connections
            <= with_fetch.report.redundant_connections
        )

    def test_classify_respects_site_subset(self, alexa_runs):
        run, _ = alexa_runs
        subset = run.reachable_sites[:5]
        dataset = run.classify(model=LifetimeModel.ACTUAL, sites=subset)
        assert set(dataset.classifications) == set(subset)


class TestOverlap:
    def test_overlap_sites_intersection(self, alexa_runs):
        run, patched = alexa_runs
        a = run.classify(model=LifetimeModel.ACTUAL, name="a")
        b = patched.classify(model=LifetimeModel.ACTUAL, name="b",
                             sites=run.reachable_sites[:10])
        sites = overlap_sites(a, b)
        assert sites == set(b.classifications) & set(a.classifications)

    def test_overlap_datasets_reaggregates(self, alexa_runs):
        run, patched = alexa_runs
        a = run.classify(model=LifetimeModel.ACTUAL, name="a")
        b = patched.classify(model=LifetimeModel.ACTUAL, name="b")
        oa, ob = overlap_datasets(a, b)
        assert set(oa.classifications) == set(ob.classifications)
        assert oa.report.h2_sites == len(oa.classifications)
        assert oa.name == "a-overlap"

    def test_empty_overlap(self):
        assert overlap_sites() == set()


class TestSubset:
    def test_generator_gives_the_same_subset_as_a_list(self, alexa_runs):
        run, _ = alexa_runs
        dataset = run.classify(model=LifetimeModel.ACTUAL, name="all")
        wanted = list(dataset.classifications)[::3]
        from_list = dataset.subset(wanted, name="s")
        from_generator = dataset.subset((site for site in wanted), name="s")
        assert len(wanted) > 1
        assert list(from_generator.classifications) == list(
            from_list.classifications
        )
        assert set(from_list.classifications) == set(wanted)
        assert from_generator.report == from_list.report

    def test_subset_reaggregates_like_a_fresh_fold(self, alexa_runs):
        run, _ = alexa_runs
        dataset = run.classify(model=LifetimeModel.ACTUAL, name="all")
        wanted = list(dataset.classifications)[:7]
        subset = dataset.subset(wanted, name="s")
        fresh = run.classify(model=LifetimeModel.ACTUAL, name="s", sites=wanted)
        assert subset.name == "s"
        assert subset.report == fresh.report
        assert subset.filter_stats is None


class TestClassifyDataset:
    def test_aggregates_all_sites(self, alexa_runs, small_ecosystem):
        run, _ = alexa_runs
        site_records = {
            domain: measurement.records
            for domain, measurement in run.measurements.items()
            if not measurement.unreachable
        }
        dataset = classify_dataset("x", site_records,
                                   model=LifetimeModel.ACTUAL,
                                   asdb=small_ecosystem.asdb)
        assert dataset.report.total_sites == len(site_records)
        assert dataset.attribution.ip_as_connections  # AS attribution ran
        assert dataset.filter_stats is None  # NetLog data is not sanitised
