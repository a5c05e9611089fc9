"""Throughput benchmarks for the measurement pipeline itself.

These are not paper artefacts but performance baselines for the library:
page-visit throughput, HAR sanitisation, NetLog stitching and classifier
throughput at corpus scale.
"""

from __future__ import annotations

import random

import pytest

from repro.browser.browser import ChromiumBrowser
from repro.core.classifier import classify_site
from repro.core.session import LifetimeModel, records_from_visit
from repro.crawl.classify import classify_dataset
from repro.har.reader import read_sessions
from repro.har.writer import HarNoiseConfig, write_har
from repro.netlog.parser import parse_sessions
from repro.util.clock import SimClock


@pytest.fixture(scope="module")
def visits(study):
    browser = ChromiumBrowser(
        ecosystem=study.ecosystem,
        resolver=study.ecosystem.make_resolver("bench"),
        clock=SimClock(),
        rng=random.Random(42),
    )
    return [browser.visit(site.domain) for site in study.ecosystem.websites[:50]]


def test_page_visit_throughput(benchmark, study):
    """Full browser visits (DNS, pool, requests, NetLog) per second."""
    browser = ChromiumBrowser(
        ecosystem=study.ecosystem,
        resolver=study.ecosystem.make_resolver("bench-visit"),
        clock=SimClock(),
        rng=random.Random(1),
    )
    domains = [site.domain for site in study.ecosystem.websites[:20]]
    counter = iter(range(10**9))

    def visit_one():
        domain = domains[next(counter) % len(domains)]
        return browser.visit(domain)

    visit = benchmark(visit_one)
    assert visit.ok


def test_har_write_and_sanitize(benchmark, visits):
    """HAR serialisation + the §4.3 filter cascade per visit."""
    counter = iter(range(10**9))
    rng = random.Random(3)

    def roundtrip():
        visit = visits[next(counter) % len(visits)]
        har = write_har(visit, noise=HarNoiseConfig(), rng=rng)
        return read_sessions(har)

    result = benchmark(roundtrip)
    assert result.stats.total > 0


def test_netlog_stitching(benchmark, visits):
    """NetLog event stitching per visit."""
    counter = iter(range(10**9))

    def stitch():
        visit = visits[next(counter) % len(visits)]
        return parse_sessions(visit.netlog)

    result = benchmark(stitch)
    assert result.records


def test_classifier_throughput(benchmark, visits):
    """§4.1 classification of one site's sessions."""
    record_sets = [records_from_visit(visit) for visit in visits]
    counter = iter(range(10**9))

    def classify_one():
        records = record_sets[next(counter) % len(record_sets)]
        return classify_site("site", records, model=LifetimeModel.ENDLESS)

    result = benchmark(classify_one)
    assert result.h2_connections >= 0


def test_corpus_classification(benchmark, visits):
    """Whole-corpus classification, as the study runs it: in process."""
    site_records = {
        visit.domain: records_from_visit(visit) for visit in visits
    }

    dataset = benchmark(
        lambda: classify_dataset(
            "bench", site_records, model=LifetimeModel.ENDLESS,
        )
    )
    assert dataset.report.total_sites == len(site_records)
