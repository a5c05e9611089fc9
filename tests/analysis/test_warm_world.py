"""A warm study builds no world; a cold study builds the same world.

Every crawl and classify shard of a warm study is a cache hit, so the
study needs only its world index, which the cache stores too (kind
``world``).  These tests count :meth:`Ecosystem.generate` calls, in the
study process and in forked pool workers alike, through a file that
every call appends to.
"""

from __future__ import annotations

import os
from dataclasses import replace

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.runtime import StageTimings, clear_ecosystem_cache, world_key
from repro.store import CacheStats, StudyCache
from repro.web.ecosystem import Ecosystem

_CONFIG = StudyConfig(seed=7, n_sites=40, shards=2, dns_study_days=0.25)


@pytest.fixture()
def generate_calls(monkeypatch, tmp_path):
    """A callable giving the number of world builds so far."""
    log = tmp_path / "generate-calls.log"
    log.touch()
    original = Ecosystem.generate.__func__

    def counting(cls, config=None):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return original(cls, config)

    monkeypatch.setattr(Ecosystem, "generate", classmethod(counting))
    clear_ecosystem_cache()
    yield lambda: len(log.read_text().splitlines())
    clear_ecosystem_cache()


def _cold(directory) -> str:
    """The digest of a cold cached run, which builds the one world."""
    return study_digest(Study.run(_CONFIG, cache=StudyCache(directory)))


def _generate_stage(timings: StageTimings):
    (stage,) = [
        stage for stage in timings.stages
        if stage.name == "generate-ecosystem"
    ]
    return stage


def test_warm_rerun_builds_no_world(tmp_path, generate_calls):
    cold = _cold(tmp_path / "cache")
    assert generate_calls() == 1
    clear_ecosystem_cache()
    timings = StageTimings()
    warm = Study.run(
        _CONFIG, cache=StudyCache(tmp_path / "cache"), timings=timings
    )
    assert generate_calls() == 1
    assert study_digest(warm) == cold
    assert _generate_stage(timings).items == 0


@pytest.mark.parametrize("executor", ["serial", "process:2"])
def test_one_missing_crawl_shard_builds_the_world_once(
    tmp_path, generate_calls, executor
):
    directory = tmp_path / "cache"
    cold = _cold(directory)
    victim = sorted((directory / "har-crawl").glob("*.pkl"))[0]
    victim.unlink()
    clear_ecosystem_cache()
    cache = StudyCache(directory)
    rerun = Study.run(replace(_CONFIG, executor=executor), cache=cache)
    assert generate_calls() == 2
    assert study_digest(rerun) == cold
    assert cache.counters["world"].hits == 1
    # The other shard's classify nodes are cached: it stays on disk
    # until the corpus is read, and reading it builds no world.
    assert cache.counters["har-crawl"] == CacheStats(misses=1, writes=1)
    rerun.har_corpus
    assert generate_calls() == 2
    assert cache.counters["har-crawl"] == CacheStats(
        hits=1, misses=1, writes=1
    )


def test_truncated_world_entry_is_rebuilt_and_heals(
    tmp_path, generate_calls
):
    directory = tmp_path / "cache"
    cold = _cold(directory)
    path = StudyCache(directory)._path(
        "world", world_key(_CONFIG.ecosystem_config())
    )
    path.write_bytes(path.read_bytes()[:7])
    clear_ecosystem_cache()
    cache = StudyCache(directory)
    rebuilt = Study.run(_CONFIG, cache=cache)
    assert cache.counters["world"] == CacheStats(
        hits=0, misses=1, writes=1, errors=1
    )
    assert generate_calls() == 2
    assert study_digest(rebuilt) == cold

    clear_ecosystem_cache()
    healed = StudyCache(directory)
    assert study_digest(Study.run(_CONFIG, cache=healed)) == cold
    assert healed.counters["world"] == CacheStats(hits=1)
    assert generate_calls() == 2
