"""Pinned crawl and classification cache keys.

A shard's cache key is a promise to every cache on disk: the same
configuration finds the same artefact.  These pins hold the exact key
of every crawl shard and every classification shard of one fixed small
study with two shards, read back from the run journal, so a refactor of
the crawl harnesses cannot move a key without this test saying so.  The
world index's key is pinned the same way.
"""

from __future__ import annotations

import pytest

from repro.analysis.study import Study, StudyConfig
from repro.runlog.journal import journal_dir, load_records
from repro.runtime import world_key
from repro.store import StudyCache
from repro.web.ecosystem import EcosystemConfig

_CONFIG = StudyConfig(seed=7, n_sites=40, shards=2, dns_study_days=0.25)

#: Journal stage -> the key of each of its shards, in plan order.
PINNED_KEYS: dict[str, tuple[str, ...]] = {
    "har-crawl": (
        "11694696643d559f1d95da7fc62708b2",
        "676d802d0bd50bb6db1360714aee45d5",
    ),
    "alexa-fetch": (
        "dab450b065fa4a245b1f46a7ec8b932e",
        "b947aef4d72cd7d45da244760ab1cc78",
    ),
    "alexa-nofetch": (
        "8d9a16f27e62320f6ad792641ce8c710",
        "4f20aa68d8ac7c481fa0cf9c99c1188c",
    ),
    "classify-har-endless": (
        "81fffa0c110044c4e36a8bea6e9d4d66",
        "15829f7f9783b6ec357b16199d782826",
    ),
    "classify-har-immediate": (
        "96b7771bfc105af511d2c80b6038e0a6",
        "a6e850be18b0190aa04a750412f98339",
    ),
    "classify-alexa-endless": (
        "d925cdf581613d66b9cb349aaddb0406",
        "af9c9c8c09499a13c0627074cca919bb",
    ),
    "classify-alexa": (
        "1971019d8bedb9d81bd0992cb5a16ddd",
        "bfa9756f8ed7b4ce7cc2c7bcf8992fc6",
    ),
    "classify-alexa-nofetch": (
        "1594c9b2a319bec5242daf793ed9af89",
        "560c11995e02098156671eca3addcf14",
    ),
}


#: The ``alexa-share`` sidecar key of each Alexa shard index, in plan
#: order: a hash of the index's fetch and nofetch crawl shard keys.
PINNED_SIDECAR_KEYS = (
    "64b5ac23d9f58c2e15937addf838191c",
    "5df9afd52bf6fdc77bd87c84f354f717",
)

#: The ``world`` key of ``_CONFIG``'s world index.
PINNED_WORLD_KEY = "3455fc30463dc5c429b08f89d3ec38e4"

#: The ``world`` key of the default ``EcosystemConfig()``.
PINNED_DEFAULT_WORLD_KEY = "d12665e513350b1f772ebb2a874aeb78"


def test_world_keys_are_unchanged():
    assert world_key(_CONFIG.ecosystem_config()) == PINNED_WORLD_KEY
    assert world_key(EcosystemConfig()) == PINNED_DEFAULT_WORLD_KEY


@pytest.fixture(scope="module")
def journalled_keys(tmp_path_factory) -> dict[str, tuple[str, ...]]:
    """Every finished shard's key of one cold cached study, by stage."""
    directory = tmp_path_factory.mktemp("key-pins")
    cache = StudyCache(directory)
    Study.run(_CONFIG, cache=cache)
    (path,) = journal_dir(directory).glob("*.jsonl")
    keys: dict[str, tuple[str, ...]] = {}
    for record in load_records(path):
        if record.get("event") == "shard-finish":
            stage = record["stage"]
            keys[stage] = keys.get(stage, ()) + (record["artifact"],)
    return keys


def test_every_stage_is_pinned(journalled_keys):
    assert set(journalled_keys) == set(PINNED_KEYS)


@pytest.mark.parametrize("stage", sorted(PINNED_KEYS))
def test_shard_keys_are_unchanged(journalled_keys, stage):
    assert journalled_keys[stage] == PINNED_KEYS[stage]


def test_warm_rerun_hits_every_pinned_key(tmp_path):
    """The pins are the keys a second identical run looks up.

    Every classify node is cached, so the warm run leaves every crawl
    shard on disk; reading the study's crawls then loads each one.
    """
    cache = StudyCache(tmp_path)
    Study.run(_CONFIG, cache=cache)
    warm = Study.run(_CONFIG, cache=cache)
    crawl_shards = sum(
        len(keys) for stage, keys in PINNED_KEYS.items()
        if not stage.startswith("classify-")
    )
    classify_shards = sum(
        len(keys) for stage, keys in PINNED_KEYS.items()
        if stage.startswith("classify-")
    )
    counters = cache.counters
    assert counters["har-crawl"].hits + counters["alexa-crawl"].hits == 0
    assert counters["classify"].hits == classify_shards
    assert counters["alexa-share"].hits == len(PINNED_SIDECAR_KEYS)
    warm.har_corpus, warm.alexa_run, warm.alexa_nofetch_run
    assert (
        counters["har-crawl"].hits + counters["alexa-crawl"].hits
        == crawl_shards
    )
    assert set(cache.entries()) == {
        (
            "classify" if stage.startswith("classify-")
            else "har-crawl" if stage == "har-crawl" else "alexa-crawl",
            key,
        )
        for stage, keys in PINNED_KEYS.items() for key in keys
    } | {("world", PINNED_WORLD_KEY)} | {
        ("alexa-share", key) for key in PINNED_SIDECAR_KEYS
    }
