"""A warm study leaves a crawl shard on disk when nothing reads it.

A crawl shard is lazy when its artefact and every classify node it
feeds are cached (an Alexa node also needs its ``alexa-share``
sidecar).  The run journals it as cached without loading it; the
study's crawl fields load it on first read.  These tests pin what a
warm run loads, that the lazily read crawls equal the cold ones, and
that damaged or older caches still give the cold digest.
"""

from __future__ import annotations

import shutil
from collections import Counter
from dataclasses import replace

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.runlog.journal import journal_dir, load_records
from repro.serve import StudyService
from repro.serve.schema import StudyRequest
from repro.store import CacheStats, StudyCache

_CONFIG = StudyConfig(seed=7, n_sites=60, shards=4, dns_study_days=0.25)

_CRAWL_KINDS = ("har-crawl", "alexa-crawl")


@pytest.fixture(scope="module")
def warmed(tmp_path_factory):
    """``(cold study, its digest, the cache directory it filled)``."""
    directory = tmp_path_factory.mktemp("lazy-crawls") / "cache"
    cold = Study.run(_CONFIG, cache=StudyCache(directory))
    return cold, study_digest(cold), directory


@pytest.fixture()
def cache_copy(warmed, tmp_path):
    """A private copy of the warmed cache directory."""
    directory = tmp_path / "cache"
    shutil.copytree(warmed[2], directory)
    return directory


def _entries(directory, kind: str) -> list[str]:
    return sorted(
        key for entry, key in StudyCache(directory).entries()
        if entry == kind
    )


def _read_crawls(study: Study) -> None:
    study.har_corpus, study.alexa_run, study.alexa_nofetch_run


def test_warm_run_loads_no_crawl_shard_until_read(warmed, cache_copy):
    cold, digest, _ = warmed
    cache = StudyCache(cache_copy)
    warm = Study.run(_CONFIG, cache=cache)
    assert study_digest(warm) == digest
    for kind in _CRAWL_KINDS:
        assert cache.counters.get(kind, CacheStats()).hits == 0
    assert cache.counters["classify"].hits == len(
        _entries(cache_copy, "classify")
    )
    assert cache.counters["alexa-share"].hits == len(
        _entries(cache_copy, "alexa-share")
    )
    assert warm.alexa_common_sites == cold.alexa_common_sites

    _read_crawls(warm)
    for kind in _CRAWL_KINDS:
        assert cache.counters[kind] == CacheStats(
            hits=len(_entries(cache_copy, kind))
        )
    assert warm.har_corpus.hars == cold.har_corpus.hars
    assert warm.har_corpus.provenance == cold.har_corpus.provenance
    assert warm.alexa_run.measurements == cold.alexa_run.measurements
    assert warm.alexa_nofetch_run.measurements == (
        cold.alexa_nofetch_run.measurements
    )
    assert warm.fault_counts() == cold.fault_counts()


def test_gone_and_corrupt_crawl_shards_recrawl_on_read(warmed, cache_copy):
    cold, digest, _ = warmed
    gone, corrupt = [
        cache_copy / "har-crawl" / f"{key}.pkl"
        for key in _entries(cache_copy, "har-crawl")[:2]
    ]
    gone.unlink()
    corrupt.write_bytes(corrupt.read_bytes()[:16])
    cache = StudyCache(cache_copy)
    warm = Study.run(_CONFIG, cache=cache)
    assert study_digest(warm) == digest
    # The gone shard missed at plan time and was recrawled by the run;
    # the corrupt one still looked cached, so the run left it on disk.
    assert cache.counters["har-crawl"] == CacheStats(misses=1, writes=1)

    assert warm.har_corpus.hars == cold.har_corpus.hars
    shards = len(_entries(cache_copy, "har-crawl"))
    assert cache.counters["har-crawl"] == CacheStats(
        hits=shards - 2, misses=2, writes=2, errors=1
    )
    assert StudyCache(cache_copy).get("har-crawl", corrupt.stem) is not None


def test_recrawl_after_the_run_retries_like_the_run(tmp_path):
    """A shard that vanishes after the run recrawls on first read under
    the run's retry budget: ``worker-crash`` strikes are retried, not
    raised, though the run's journal is closed by then."""
    config = replace(_CONFIG, fault_profile="worker-crash")
    cold = Study.run(config, cache=StudyCache(tmp_path))
    warm = Study.run(config, cache=StudyCache(tmp_path))
    for path in (tmp_path / "har-crawl").glob("*.pkl"):
        path.unlink()
    assert warm.har_corpus.hars == cold.har_corpus.hars
    assert warm.har_corpus.fault_counts == cold.har_corpus.fault_counts


def test_corrupt_classify_artefact_of_a_lazy_shard_is_recomputed(
    warmed, cache_copy
):
    cold, digest, _ = warmed
    (key, *_) = _entries(cache_copy, "classify")
    victim = cache_copy / "classify" / f"{key}.pkl"
    victim.write_bytes(victim.read_bytes()[:16])
    cache = StudyCache(cache_copy)
    warm = Study.run(_CONFIG, cache=cache)
    assert study_digest(warm) == digest
    assert cache.counters["classify"].errors == 1
    assert cache.counters["classify"].writes == 1
    # Only the crawl shard under the damaged node was loaded.
    assert sum(
        cache.counters.get(kind, CacheStats()).hits for kind in _CRAWL_KINDS
    ) == 1
    assert StudyCache(cache_copy).get("classify", victim.stem) is not None


def test_cache_without_sidecars_gains_them(warmed, cache_copy):
    _, digest, _ = warmed
    sidecars = _entries(cache_copy, "alexa-share")
    assert sidecars
    shutil.rmtree(cache_copy / "alexa-share")
    cache = StudyCache(cache_copy)
    warm = Study.run(_CONFIG, cache=cache)
    assert study_digest(warm) == digest
    assert cache.counters["alexa-share"] == CacheStats(
        misses=len(sidecars), writes=len(sidecars)
    )
    assert cache.counters["alexa-crawl"].hits == len(
        _entries(cache_copy, "alexa-crawl")
    )
    assert _entries(cache_copy, "alexa-share") == sidecars

    rewarm = StudyCache(cache_copy)
    assert study_digest(Study.run(_CONFIG, cache=rewarm)) == digest
    assert "alexa-crawl" not in rewarm.counters


def _shard_records(directory) -> list[dict]:
    (path,) = journal_dir(directory).glob("*.jsonl")
    return [
        record for record in load_records(path)
        if record.get("event", "").startswith("shard-")
    ]


def test_warm_journal_skips_every_shard_the_cold_run_finished(
    warmed, cache_copy
):
    """A lazy shard is journalled exactly like a loaded cached one."""
    finished = Counter(
        ("shard-skip", record["stage"], record["artifact"], "cache")
        for record in _shard_records(cache_copy)
        if record["event"] == "shard-finish"
    )
    Study.run(_CONFIG, cache=StudyCache(cache_copy))
    skipped = Counter(
        (record["event"], record["stage"], record["artifact"],
         record.get("reason"))
        for record in _shard_records(cache_copy)
    )
    assert skipped == finished


def test_served_warm_study_reports_every_shard_reused(warmed, cache_copy):
    _, digest, _ = warmed
    shards = sum(
        1 for record in _shard_records(cache_copy)
        if record["event"] == "shard-finish"
    )
    service = StudyService(str(cache_copy), executor="serial")
    events: list[tuple[str, dict]] = []
    try:
        payload = service.run_study(
            StudyRequest(config=_CONFIG),
            emit=lambda name, data: events.append((name, data)),
        )
    finally:
        service.close()
    assert payload["digest"] == digest and payload["cached"]
    done = [data for name, data in events if name == "shard_done"]
    assert len(done) == shards
    assert all(data["result"] == "reused" for data in done)
