"""The shard scheduler: one stream of crawl shards, classified as they land.

A study submits every uncached crawl shard to its executor at once and
classifies each crawl shard in its own process as the shard lands, in
whatever order the executor completes them.  These tests hold that to
the figures the stage-by-stage driver produced: the pinned golden
digest, the pinned cache keys, the journal's records and the coverage
block of a run that loses a shard.  Figures pinned here were read from
the stage-by-stage driver on the same configs.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.crawl import alexa
from repro.runlog import RunCoverage, load_records, run_id
from repro.runtime import SerialExecutor, world_index_for
from repro.runtime.executor import Landed
from repro.store import StudyCache

from test_crawl_cache_keys import _CONFIG as KEYS_CONFIG, PINNED_KEYS

pytestmark = pytest.mark.slow

GOLDEN_DIGEST = (
    Path(__file__).resolve().parent.parent / "golden" / "digest.txt"
).read_text().strip()

GOLDEN = StudyConfig(seed=7, n_sites=120, dns_study_days=0.25)


class _ReorderingExecutor(SerialExecutor):
    """Runs a stream's batches in reverse or shuffled order."""

    def __init__(self, order: str) -> None:
        self.order = order

    def stream(self, batches, *, chunk_size=None):
        indices = list(range(len(batches)))
        if self.order == "reverse":
            indices.reverse()
        else:
            random.Random(len(batches)).shuffle(indices)
        for index in indices:
            fn, items = batches[index]
            (landed,) = super().stream([(fn, items)])
            yield Landed(index, results=landed.results, error=landed.error)


def _journal(cache: StudyCache, config: StudyConfig) -> list[dict]:
    return load_records(
        Path(cache.directory) / "runs" / f"{run_id(config)}.jsonl"
    )


def _finished_keys(records: list[dict]) -> dict[str, list[str]]:
    """Every finished shard's artefact key by stage, sorted."""
    keys: dict[str, list[str]] = {}
    for record in records:
        if record["event"] == "shard-finish":
            keys.setdefault(record["stage"], []).append(record["artifact"])
    return {stage: sorted(found) for stage, found in keys.items()}


@pytest.fixture(scope="module")
def in_order_keys(tmp_path_factory) -> dict[int, dict[str, list[str]]]:
    """The journalled keys of in-order runs, by shard count."""
    keys = {}
    for shards in (1, 2, 3, 7):
        config = replace(GOLDEN, shards=shards)
        cache = StudyCache(tmp_path_factory.mktemp(f"in-order-{shards}"))
        Study.run(config, cache=cache)
        keys[shards] = _finished_keys(_journal(cache, config))
    return keys


@pytest.mark.golden
class TestLandingOrder:
    @pytest.mark.parametrize("order", ["reverse", "shuffled"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_landing_order_moves_no_digest_and_no_key(
        self, tmp_path, in_order_keys, order, shards
    ):
        config = replace(GOLDEN, shards=shards)
        cache = StudyCache(tmp_path)
        study = Study.run(
            config, executor=_ReorderingExecutor(order), cache=cache
        )
        assert study_digest(study) == GOLDEN_DIGEST
        assert _finished_keys(_journal(cache, config)) == in_order_keys[shards]

    @pytest.mark.parametrize("order", ["reverse", "shuffled"])
    def test_landing_order_keeps_the_pinned_keys(self, tmp_path, order):
        cache = StudyCache(tmp_path)
        Study.run(KEYS_CONFIG, executor=_ReorderingExecutor(order),
                  cache=cache)
        assert _finished_keys(_journal(cache, KEYS_CONFIG)) == {
            stage: sorted(keys) for stage, keys in PINNED_KEYS.items()
        }


#: The journal's records (``seq`` left out) of the golden config at
#: ``shards=4``, as a multiset: 66 records hashing to this value.
PINNED_JOURNAL = (66, "0ec3382eb3cad306")


def _multiset(records: list[dict]) -> tuple[int, str]:
    lines = sorted(
        json.dumps({k: v for k, v in record.items() if k != "seq"},
                   sort_keys=True)
        for record in records
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return len(lines), digest[:16]


class TestJournal:
    @pytest.mark.parametrize("executor", ["serial", "process:2"])
    def test_journal_holds_the_same_records(self, tmp_path, executor):
        config = replace(GOLDEN, shards=4, executor=executor)
        cache = StudyCache(tmp_path)
        Study.run(config, cache=cache)
        records = _journal(cache, config)
        assert _multiset(records) == PINNED_JOURNAL
        # Every crawl shard is submitted, and journalled as started,
        # before any shard finishes.
        crawl_starts = [
            position for position, record in enumerate(records)
            if record["event"] == "shard-start"
            and not record["stage"].startswith("classify-")
        ]
        events = [record["event"] for record in records]
        assert max(crawl_starts) < events.index("shard-finish")


class _AlwaysUnreachable:
    """Fails every attempt at one Alexa fetch site with an ``OSError``.

    Installed over :func:`repro.crawl.alexa.open_site` before the pool
    forks, so forked workers inherit it.
    """

    def __init__(self, monkeypatch, domain: str) -> None:
        self.domain = domain
        self.open_site = alexa.open_site
        monkeypatch.setattr(alexa, "open_site", self)

    def __call__(self, task, *, run, **kwargs):
        if run == "alexa-fetch" and task.domain == self.domain:
            raise OSError(f"injected: {task.domain} unreachable forever")
        return self.open_site(task, run=run, **kwargs)


class TestQuarantineMidStream:
    def test_process_pool_quarantine_keeps_the_coverage_block(
        self, tmp_path, monkeypatch
    ):
        config = replace(GOLDEN, shards=4, fault_profile="chaos",
                         executor="process:2")
        index = world_index_for(config.ecosystem_config())
        _AlwaysUnreachable(monkeypatch, index.alexa_list(36)[5])
        cache = StudyCache(tmp_path)
        study = Study.run(config, cache=cache)
        assert study.coverage == RunCoverage(
            shards_total=30, shards_ok=29, shards_quarantined=1,
            excluded_domains=(
                "site000003.com", "site000005.de", "site000006.com",
                "site000016.com", "site000017.com", "site000020.co.uk",
                "site000021.shop", "site000022.com", "site000023.com",
                "site000027.co.uk", "site000029.org", "site000031.br",
                "site000036.shop",
            ),
        )
        assert study_digest(study) == "73bdcccdee647f749e1ec083c2107118"
        events = Counter(
            (record["event"], record["stage"])
            for record in _journal(cache, config) if "stage" in record
        )
        assert events[("shard-quarantined", "alexa-fetch")] == 1
        assert events[("chunk-failed", "alexa-fetch")] == 1


class TestFatalMidStream:
    def test_fatal_error_cancels_the_stream_and_stops_the_pool(
        self, tmp_path, monkeypatch
    ):
        """A programming error in a worker fails the run at once: no
        later crawl shard lands, and no pool process outlives it."""

        def broken_parser(netlog):
            raise TypeError("parser bug")

        monkeypatch.setattr(alexa, "parse_sessions", broken_parser)
        config = replace(GOLDEN, shards=4, executor="process:2")
        cache = StudyCache(tmp_path)
        with pytest.raises(TypeError, match="parser bug"):
            Study.run(config, cache=cache)
        assert multiprocessing.active_children() == []
        records = _journal(cache, config)
        events = [record["event"] for record in records]
        assert "run-finish" not in events
        assert events.count("shard-failed") == 1
        assert not any(
            record["event"] == "shard-finish"
            and record["stage"].startswith("alexa-")
            for record in records
        )
