"""Incremental recompute across evolution epochs.

The per-site-set cache keys promise: epoch N+1 of a longitudinal run
reuses every shard the evolution ledger never touched, and recomputes
exactly the rest.  The expected reuse counts are *derived from the
worlds themselves* — by diffing per-shard keys between the pristine
and evolved ecosystems — never hardcoded, so the assertions track the
policy's real blast radius.

The scale (60 sites, 24 shards, ``cert-rotation``) is the smallest
probe where the policy's per-resource churn leaves at least one shard
untouched; anything coarser goes fully dirty and the differential has
no teeth.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import ALEXA_FETCH, ALEXA_NOFETCH, Study, StudyConfig
from repro.crawl import HttpArchiveCrawler
from repro.crawl.alexa import AlexaCrawler
from repro.store import CacheStats, StudyCache
from repro.web.ecosystem import Ecosystem

pytestmark = pytest.mark.slow

_N_SHARDS = 24

_BASE = StudyConfig(
    seed=7, n_sites=60, dns_study_days=0.25, shards=_N_SHARDS,
    evolution_policy="cert-rotation",
)


def _config(epochs: int) -> StudyConfig:
    return replace(_BASE, epochs=epochs)


def _crawl_keys(config: StudyConfig) -> dict[tuple[str, int], str]:
    """Every crawl shard's cache key at ``config``'s epoch, by
    ``(stage, bucket index)`` — the ground truth the study must hit."""
    ecosystem = Ecosystem.generate(config.ecosystem_config())
    keys: dict[tuple[str, int], str] = {}
    ha = HttpArchiveCrawler(
        world=ecosystem.index, seed=config.seed + 100,
        fault_profile=config.fault_profile,
    )
    ha_domains = ecosystem.index.httparchive_sample(
        config.ha_sample_share, seed=config.seed + 1
    )
    for shard in ha.plan_shards(ha_domains, shards=_N_SHARDS):
        keys[("ha", shard.index)] = ha.shard_key(
            shard.domains, shard.offsets
        )
    alexa = AlexaCrawler(
        world=ecosystem.index, seed=config.seed + 200,
        fault_profile=config.fault_profile,
    )
    alexa_domains = ecosystem.index.alexa_list(
        max(1, int(config.n_sites * config.alexa_share))
    )
    for stage, variant in (("fetch", ALEXA_FETCH), ("nofetch", ALEXA_NOFETCH)):
        plan = alexa.plan_shards(alexa_domains, variant, shards=_N_SHARDS)
        for shard in plan:
            keys[(stage, shard.index)] = alexa.shard_key(
                shard.domains, shard.offsets, variant
            )
    return keys


@pytest.fixture(scope="module")
def shard_keys() -> tuple[dict, dict]:
    return _crawl_keys(_config(0)), _crawl_keys(_config(1))


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory) -> tuple[StudyCache, str, CacheStats]:
    """A cache warmed by the epoch-0 study, plus its digest and the
    counter snapshot taken right after warming."""
    cache = StudyCache(tmp_path_factory.mktemp("epoch-cache"))
    study = Study.run(_config(0), cache=cache)
    return cache, study_digest(study), cache.total_stats()


class TestEpochIncrementality:
    def test_some_but_not_all_shards_stay_clean(self, shard_keys):
        """The scenario has teeth: the key diff is a strict partial."""
        pristine, evolved = shard_keys
        assert pristine.keys() == evolved.keys()
        clean = [slot for slot in pristine if pristine[slot] == evolved[slot]]
        assert 0 < len(clean) < len(pristine)

    def test_epoch_one_reuses_exactly_the_untouched_shards(
        self, warm_cache, shard_keys
    ):
        cache, _, before = warm_cache
        study = Study.run(_config(1), cache=cache)
        after = cache.total_stats()
        pristine, evolved = shard_keys
        clean_ha = sum(
            1 for (stage, index), key in pristine.items()
            if stage == "ha" and evolved[(stage, index)] == key
        )
        clean_alexa = sum(
            1 for (stage, index), key in pristine.items()
            if stage != "ha" and evolved[(stage, index)] == key
        )
        counters = cache.counters
        # Every clean crawl shard's classify nodes are cached, so the
        # run leaves it on disk; reading the crawls loads it.
        assert counters["har-crawl"].hits == 0
        assert counters["alexa-crawl"].hits == 0
        study.har_corpus, study.alexa_run, study.alexa_nofetch_run
        assert counters["har-crawl"].hits == clean_ha
        assert counters["alexa-crawl"].hits == clean_alexa
        # A clean crawl shard's classifications are clean too: HAR
        # shards feed every lifetime model, fetch-run shards feed two
        # datasets, nofetch-run shards one.
        clean_fetch = sum(
            1 for (stage, index), key in pristine.items()
            if stage == "fetch" and evolved[(stage, index)] == key
        )
        clean_nofetch = clean_alexa - clean_fetch
        expected_classify = (
            clean_ha * len(_BASE.har_models)
            + clean_fetch * 2 + clean_nofetch
        )
        assert counters["classify"].hits == expected_classify
        # Everything else was recomputed, not silently skipped.
        assert after.misses > before.misses
        assert after.errors == 0

    def test_warm_epoch_digest_matches_cold(self, warm_cache):
        cache, _, _ = warm_cache
        warm = Study.run(_config(1), cache=cache)
        cold = Study.run(_config(1))
        assert study_digest(warm) == study_digest(cold)


class TestWarmRerun:
    def test_full_rerun_is_all_hits(self, warm_cache):
        cache, digest, _ = warm_cache
        before = cache.total_stats()
        study = Study.run(_config(0), cache=cache)
        after = cache.total_stats()
        assert study_digest(study) == digest
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_corrupt_shard_entry_degrades_to_recorded_miss(
        self, warm_cache
    ):
        """One truncated shard artefact costs one recompute, not the
        study; the digest is unchanged and the entry heals on disk.

        Its classify nodes are cached, so the run leaves the shard on
        disk and the recompute happens when the corpus is read."""
        cache, digest, _ = warm_cache
        kind, key = next(
            entry for entry in cache.entries() if entry[0] == "har-crawl"
        )
        path = cache.directory / kind / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[:16])
        before = cache.total_stats()
        study = Study.run(_config(0), cache=cache)
        assert study_digest(study) == digest
        assert cache.total_stats().errors == before.errors
        study.har_corpus
        after = cache.total_stats()
        assert after.errors == before.errors + 1
        assert after.misses == before.misses + 1
        # The healed entry round-trips again.
        assert cache.get(kind, key) is not None
