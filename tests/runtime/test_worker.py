"""Tests for the per-process ecosystem cache."""

from __future__ import annotations

import sys
import threading

from repro.runtime.worker import (
    MAX_CACHED_WORLDS,
    clear_ecosystem_cache,
    ecosystem_for,
    ecosystem_is_cached,
    world_index_for,
    world_index_is_cached,
    world_key,
)
from repro.store import StudyCache
from repro.web.ecosystem import Ecosystem, EcosystemConfig


def _config(index: int) -> EcosystemConfig:
    return EcosystemConfig(seed=1000 + index, n_sites=5)


class TestEcosystemCache:
    def teardown_method(self):
        clear_ecosystem_cache()

    def test_hit_returns_same_world(self):
        clear_ecosystem_cache()
        config = _config(0)
        first = ecosystem_for(config)
        assert ecosystem_is_cached(config)
        assert ecosystem_for(config) is first

    def test_cache_is_bounded_lru(self):
        # Sweeps touch many (seed, n_sites) worlds; only the most
        # recently used MAX_CACHED_WORLDS may stay resident.
        clear_ecosystem_cache()
        configs = [_config(index) for index in range(MAX_CACHED_WORLDS + 2)]
        for config in configs:
            ecosystem_for(config)
        assert not ecosystem_is_cached(configs[0])
        assert not ecosystem_is_cached(configs[1])
        for config in configs[2:]:
            assert ecosystem_is_cached(config)

    def test_recent_use_protects_from_eviction(self):
        clear_ecosystem_cache()
        configs = [_config(index) for index in range(MAX_CACHED_WORLDS)]
        for config in configs:
            ecosystem_for(config)
        ecosystem_for(configs[0])  # refresh the oldest
        ecosystem_for(_config(99))  # force one eviction
        assert ecosystem_is_cached(configs[0])
        assert not ecosystem_is_cached(configs[1])


class TestWorldIndexResolution:
    def teardown_method(self):
        clear_ecosystem_cache()

    def test_concurrent_resolution_agrees_and_leaves_one_entry(
        self, tmp_path
    ):
        # Eight threads on two cores, switching often, resolve one
        # config against an empty process and an empty study cache:
        # each must get the same answers, and the cache one loadable
        # entry.
        clear_ecosystem_cache()
        config = EcosystemConfig(seed=1100, n_sites=30)
        cache = StudyCache(tmp_path)
        barrier = threading.Barrier(8)
        found: list = []
        errors: list[BaseException] = []

        def resolve() -> None:
            try:
                barrier.wait(timeout=30)
                found.append(world_index_for(config, cache))
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=resolve) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors and len(found) == 8
        reference = Ecosystem.generate(config)
        ips = sorted(reference.servers)
        for index in found + [cache.get("world", world_key(config))]:
            assert index.alexa_list(30) == reference.index.alexa_list(30)
            assert index.httparchive_sample(0.5) == (
                reference.index.httparchive_sample(0.5)
            )
            assert [index.asdb.lookup(ip) for ip in ips] == [
                reference.asdb.lookup(ip) for ip in ips
            ]
        assert list(cache.entries()) == [("world", world_key(config))]

    def test_in_process_world_writes_a_missing_entry(self, tmp_path):
        clear_ecosystem_cache()
        config = _config(7)
        world = ecosystem_for(config)
        cache = StudyCache(tmp_path)
        assert not cache.contains("world", world_key(config))
        assert world_index_is_cached(config, cache)
        assert world_index_for(config, cache).domains == world.index.domains
        assert cache.counters["world"].writes == 1
        assert cache.counters["world"].lookups == 0
