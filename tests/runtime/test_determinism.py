"""Determinism: the executor must never change study output.

The per-site seeding discipline (everything derived from
``(seed, run, domain)``) makes each site's measurement independent of
scheduling, so serial, thread and process executors must produce
digest-identical studies — the safety net every future performance PR
runs against.
"""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.analysis.digest import dataset_digest, study_digest
from repro.analysis.study import Study, StudyConfig
from repro.crawl.alexa import _measure_one_site
from repro.crawl.httparchive import _crawl_one_site
from repro.runtime import ProcessExecutor, SerialExecutor, ThreadExecutor

pytestmark = pytest.mark.slow

_CONFIG = StudyConfig(seed=7, n_sites=60, dns_study_days=0.25)


@pytest.fixture(scope="module")
def serial_study() -> Study:
    return Study.run(_CONFIG)


class _RecordingExecutor(SerialExecutor):
    """A serial executor that records every function it is handed.

    Records at :meth:`stream`, the primitive ``map_sites`` calls too,
    so no batch reaches the executor unrecorded.
    """

    def __init__(self) -> None:
        self.functions: set = set()

    def stream(self, batches, *, chunk_size=None):
        self.functions.update(fn for fn, _ in batches)
        return super().stream(batches, chunk_size=chunk_size)


class TestOnlyCrawlsReachTheExecutor:
    def test_sharded_study_sends_only_site_crawls(self, serial_study):
        """Classification runs in the study process: a sharded study
        hands its executor the two crawl workers and nothing else."""
        executor = _RecordingExecutor()
        study = Study.run(replace(_CONFIG, shards=2), executor=executor)
        assert executor.functions == {_crawl_one_site, _measure_one_site}
        assert study_digest(study) == study_digest(serial_study)


class TestStudyDigest:
    def test_stable_across_runs(self, serial_study):
        assert study_digest(serial_study) == study_digest(Study.run(_CONFIG))

    def test_thread_executor_matches_serial(self, serial_study):
        with ThreadExecutor(4) as executor:
            threaded = Study.run(_CONFIG, executor=executor)
        assert study_digest(threaded) == study_digest(serial_study)

    def test_process_executor_matches_serial(self, serial_study):
        with ProcessExecutor(2) as executor:
            processed = Study.run(_CONFIG, executor=executor)
        assert study_digest(processed) == study_digest(serial_study)

    def test_single_site_chunks_match(self, serial_study):
        with ThreadExecutor(2, chunk_size=1) as executor:
            chunked = Study.run(_CONFIG, executor=executor)
        assert study_digest(chunked) == study_digest(serial_study)

    def test_oversized_chunks_match(self, serial_study):
        with ThreadExecutor(2, chunk_size=10_000) as executor:
            chunked = Study.run(_CONFIG, executor=executor)
        assert study_digest(chunked) == study_digest(serial_study)

    def test_executor_spec_in_config_matches(self, serial_study):
        study = Study.run(
            StudyConfig(seed=7, n_sites=60, dns_study_days=0.25,
                        executor="thread", parallelism=3)
        )
        assert study_digest(study) == study_digest(serial_study)

    def test_different_seeds_diverge(self, serial_study):
        other = Study.run(StudyConfig(seed=8, n_sites=60, dns_study_days=0.25))
        assert study_digest(other) != study_digest(serial_study)

    def test_different_scale_diverges(self, serial_study):
        other = Study.run(StudyConfig(seed=7, n_sites=61, dns_study_days=0.25))
        assert study_digest(other) != study_digest(serial_study)


class TestDatasetDigest:
    def test_per_dataset_digests_match_across_executors(self, serial_study):
        with ProcessExecutor(2) as executor:
            processed = Study.run(_CONFIG, executor=executor)
        for key in serial_study.datasets:
            assert dataset_digest(processed.datasets[key]) == (
                dataset_digest(serial_study.datasets[key])
            ), key

    def test_datasets_have_distinct_digests(self, serial_study):
        digests = {
            dataset_digest(dataset)
            for dataset in serial_study.datasets.values()
        }
        assert len(digests) == len(serial_study.datasets)


class TestSideArtifactsAgree:
    """Non-dataset study artefacts must also be executor-independent."""

    def test_lifetimes_agree(self, serial_study):
        with ProcessExecutor(2) as executor:
            processed = Study.run(_CONFIG, executor=executor)
        assert processed.connection_lifetimes() == (
            serial_study.connection_lifetimes()
        )
        assert processed.early_closed_lifetimes() == (
            serial_study.early_closed_lifetimes()
        )

    def test_common_sites_agree(self, serial_study):
        with ThreadExecutor(3) as executor:
            threaded = Study.run(_CONFIG, executor=executor)
        assert threaded.alexa_common_sites == serial_study.alexa_common_sites
        assert sorted(threaded.har_corpus.hars) == (
            sorted(serial_study.har_corpus.hars)
        )
