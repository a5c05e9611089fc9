"""Tests for the content-addressed study cache."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.analysis.study import StudyConfig
from repro.core.session import LifetimeModel
from repro.crawl.alexa import AlexaCrawler, AlexaVariant
from repro.crawl.httparchive import HttpArchiveCrawler
from repro.store import CacheStats, StudyCache, stable_key
from repro.web.ecosystem import EcosystemConfig


@dataclass(frozen=True)
class _Knobs:
    alpha: int = 1
    beta: tuple[str, ...] = ("x", "y")


class TestStableKey:
    def test_deterministic_across_calls(self):
        assert stable_key("kind", _Knobs(), 7) == stable_key("kind", _Knobs(), 7)

    def test_any_knob_changes_the_key(self):
        base = stable_key("kind", _Knobs(), 7)
        assert stable_key("kind", _Knobs(alpha=2), 7) != base
        assert stable_key("kind", _Knobs(beta=("x",)), 7) != base
        assert stable_key("other", _Knobs(), 7) != base
        assert stable_key("kind", _Knobs(), 8) != base

    def test_dict_order_is_irrelevant(self):
        assert stable_key({"a": 1, "b": 2}) == stable_key({"b": 2, "a": 1})

    def test_dataclass_configs_are_hashable(self):
        key1 = stable_key(EcosystemConfig(seed=7, n_sites=50))
        key2 = stable_key(EcosystemConfig(seed=7, n_sites=51))
        assert key1 != key2

    def test_rejects_unkeyable_values(self):
        with pytest.raises(TypeError):
            stable_key(object())


class TestStudyCache:
    def test_miss_then_hit(self, tmp_path):
        cache = StudyCache(tmp_path)
        key = stable_key("payload", 1)
        assert cache.get("classify", key) is None
        cache.put("classify", key, {"value": 41})
        assert cache.get("classify", key) == {"value": 41}
        assert cache.counters["classify"] == CacheStats(
            hits=1, misses=1, writes=1
        )

    def test_contains_does_not_count(self, tmp_path):
        cache = StudyCache(tmp_path)
        key = stable_key("x")
        assert not cache.contains("classify", key)
        cache.put("classify", key, 1)
        assert cache.contains("classify", key)
        assert cache.counters["classify"].lookups == 0

    def test_persists_across_instances(self, tmp_path):
        key = stable_key("x")
        StudyCache(tmp_path).put("classify", key, [1, 2, 3])
        assert StudyCache(tmp_path).get("classify", key) == [1, 2, 3]

    def test_entries_and_prune(self, tmp_path):
        cache = StudyCache(tmp_path)
        keep = stable_key("keep")
        drop = stable_key("drop")
        cache.put("classify", keep, 1)
        cache.put("classify", drop, 2)
        assert set(cache.entries()) == {
            ("classify", keep), ("classify", drop)
        }
        assert cache.prune({("classify", keep)}) == 1
        assert set(cache.entries()) == {("classify", keep)}

    def test_world_entries_list_and_prune(self, tmp_path, small_ecosystem):
        cache = StudyCache(tmp_path)
        world = stable_key("world", small_ecosystem.config)
        shard = stable_key("shard")
        cache.put("world", world, small_ecosystem.index)
        cache.put("classify", shard, 1)
        assert set(cache.entries()) == {("world", world), ("classify", shard)}
        assert cache.prune({("world", world)}) == 1
        assert set(cache.entries()) == {("world", world)}
        loaded = cache.get("world", world)
        assert loaded.alexa_list(5) == small_ecosystem.index.alexa_list(5)
        assert cache.prune(set()) == 1
        assert list(cache.entries()) == []

    def test_rejects_path_separators(self, tmp_path):
        cache = StudyCache(tmp_path)
        with pytest.raises(ValueError):
            cache.get("bad/kind", stable_key("x"))

    def test_rejects_unknown_kinds(self, tmp_path):
        cache = StudyCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put("things", stable_key("x"), 1)

    def test_rejects_traversal_keys(self, tmp_path):
        cache = StudyCache(tmp_path)
        for key in ("..", "..\\", "../../etc/passwd", "", "KEY", "abc"):
            with pytest.raises(ValueError):
                cache.put("classify", key, 1)
        outside = tmp_path.parent / "...pkl"
        assert not outside.exists()

    def test_corrupt_entry_is_an_evicted_miss(self, tmp_path):
        cache = StudyCache(tmp_path)
        key = stable_key("soon-corrupt")
        path = cache.put("classify", key, {"value": 1})
        # Truncate the pickle the way a crashed writer would.
        path.write_bytes(path.read_bytes()[:7])
        assert cache.get("classify", key) is None
        assert cache.counters["classify"] == CacheStats(
            hits=0, misses=1, writes=1, errors=1
        )
        # The bad file is evicted, so the next lookup is a clean miss.
        assert not cache.contains("classify", key)
        assert cache.get("classify", key) is None
        assert cache.counters["classify"].errors == 1

    def test_garbage_entry_is_an_evicted_miss(self, tmp_path):
        cache = StudyCache(tmp_path)
        key = stable_key("garbage")
        path = cache._path("classify", key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle at all")
        assert cache.get("classify", key) is None
        assert cache.counters["classify"].errors == 1
        assert not path.exists()

    def test_prune_skips_vanished_files(self, tmp_path):
        cache = StudyCache(tmp_path)
        key = stable_key("x")
        cache.put("classify", key, 1)
        entries = list(cache.entries())
        cache._path("classify", key).unlink()
        # A concurrent prune removed the file first; ours counts zero.
        assert entries == [("classify", key)]
        assert cache.prune(set()) == 0

    def test_entries_ignores_planted_garbage(self, tmp_path):
        cache = StudyCache(tmp_path)
        key = stable_key("x")
        cache.put("classify", key, 1)
        (tmp_path / "notakind").mkdir()
        (tmp_path / "notakind" / "deadbeef.pkl").write_bytes(b"x")
        (tmp_path / "classify" / "...pkl").write_bytes(b"x")
        (tmp_path / "classify" / "UPPER.pkl").write_bytes(b"x")
        assert set(cache.entries()) == {("classify", key)}
        assert cache.prune({("classify", key)}) == 0

    def test_render_stats(self, tmp_path):
        cache = StudyCache(tmp_path)
        assert "no lookups" in cache.render_stats()
        cache.get("classify", stable_key("x"))
        assert "classify" in cache.render_stats()
        assert "Errors" in cache.render_stats()


class TestCrawlCaching:
    def test_har_crawl_warm_hit_is_identical(self, small_ecosystem, tmp_path):
        cache = StudyCache(tmp_path)
        crawler = HttpArchiveCrawler(world=small_ecosystem.index, seed=51)
        domains = small_ecosystem.index.alexa_list(8)
        cold = crawler.crawl(domains, cache=cache)
        warm = crawler.crawl(domains, cache=cache)
        assert cache.counters["har-crawl"] == CacheStats(hits=1, misses=1, writes=1)
        assert set(warm.hars) == set(cold.hars)
        assert warm.provenance == cold.provenance == crawler.stage_key(domains)

    def test_alexa_run_warm_hit_is_identical(self, small_ecosystem, tmp_path):
        cache = StudyCache(tmp_path)
        crawler = AlexaCrawler(world=small_ecosystem.index, seed=52)
        domains = small_ecosystem.index.alexa_list(8)
        cold = crawler.run(domains, AlexaVariant("alexa-fetch"), cache=cache)
        warm = crawler.run(domains, AlexaVariant("alexa-fetch"), cache=cache)
        assert cache.counters["alexa-crawl"].hits == 1
        assert set(warm.measurements) == set(cold.measurements)

    def test_run_name_invalidates_alexa_key(self, small_ecosystem):
        crawler = AlexaCrawler(world=small_ecosystem.index, seed=52)
        domains = small_ecosystem.index.alexa_list(4)
        assert crawler.stage_key(domains, AlexaVariant("a")) != (
            crawler.stage_key(domains, AlexaVariant("b"))
        )

    def test_classification_caches_on_provenance(self, small_ecosystem, tmp_path):
        cache = StudyCache(tmp_path)
        crawler = HttpArchiveCrawler(world=small_ecosystem.index, seed=53)
        corpus = crawler.crawl(small_ecosystem.index.alexa_list(8), cache=cache)
        cold = corpus.classify(model=LifetimeModel.ENDLESS, cache=cache)
        warm = corpus.classify(model=LifetimeModel.ENDLESS, cache=cache)
        assert cache.counters["classify"].hits == 1
        assert warm.report.redundant_connections == cold.report.redundant_connections
        # A different lifetime model is a different artefact.
        corpus.classify(model=LifetimeModel.IMMEDIATE, cache=cache)
        assert cache.counters["classify"].misses == 2

    def test_classification_without_provenance_skips_cache(
        self, small_ecosystem, tmp_path
    ):
        cache = StudyCache(tmp_path)
        crawler = HttpArchiveCrawler(world=small_ecosystem.index, seed=54)
        # A cache-less crawl computes no stage key and sets no provenance...
        corpus = crawler.crawl(small_ecosystem.index.alexa_list(4))
        assert corpus.provenance is None
        # ...so a later cached classification cannot key itself and skips.
        corpus.classify(model=LifetimeModel.ENDLESS, cache=cache)
        assert "classify" not in cache.counters


class TestStudyConfigSmall:
    def test_small_preserves_new_fields(self):
        config = StudyConfig(
            seed=11,
            n_sites=5000,
            har_models=("endless",),
            alexa_variants=("fetch",),
            executor="thread",
            parallelism=3,
        )
        small = config.small()
        assert small.n_sites == 200
        assert small.dns_study_days == 0.25
        assert small.seed == 11
        # dataclasses.replace carries every field, including ones added
        # after small() was written.
        assert small.har_models == ("endless",)
        assert small.alexa_variants == ("fetch",)
        assert small.executor == "thread"
        assert small.parallelism == 3

    def test_small_copies_overrides(self):
        config = StudyConfig(ecosystem_overrides={"tail_services": 10})
        small = config.small()
        assert small.ecosystem_overrides == config.ecosystem_overrides
        assert small.ecosystem_overrides is not config.ecosystem_overrides
