"""RunContext through the whole pipeline: inertness, recovery,
quarantine, strict mode and cache rot.

Every test here runs the golden-scale study (seed=7, n=120) under the
journalled per-shard path and holds it against the pinned golden
digest: the run layer must change **nothing** unless shards are
actually lost.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.report import generate_report
from repro.analysis.study import Study, StudyConfig
from repro.crawl import httparchive
from repro.runlog import (
    RunContext,
    RunJournal,
    WorkerCrashError,
    load_records,
    run_id,
)
from repro.runlog.context import _NoJournal
from repro.store import StudyCache

GOLDEN_DIGEST = (
    Path(__file__).resolve().parent.parent / "golden" / "digest.txt"
).read_text().strip()


def _config(**overrides) -> StudyConfig:
    base = StudyConfig(seed=7, n_sites=120, dns_study_days=0.25, shards=4)
    return replace(base, **overrides)


#: Journalled shards per golden-config run at shards=4: each of the 3
#: crawls has 4 shards, and each of the 5 classified datasets
#: (har-endless, har-immediate, alexa-endless, alexa, alexa-nofetch)
#: has one classification shard per crawl shard.
CRAWL_SHARDS = 12
CLASSIFY_SHARDS = 5 * 4


def _journal_records(cache: StudyCache, config: StudyConfig) -> list[dict]:
    path = Path(cache.directory) / "runs" / f"{run_id(config)}.jsonl"
    return load_records(path)


def _journal_events(cache: StudyCache, config: StudyConfig) -> list[str]:
    return [record["event"] for record in _journal_records(cache, config)]


def _events_by_stage_kind(
    cache: StudyCache, config: StudyConfig, event: str
) -> Counter:
    """How many ``event`` records crawl vs classify stages journalled."""
    return Counter(
        "classify" if record["stage"].startswith("classify-") else "crawl"
        for record in _journal_records(cache, config)
        if record["event"] == event
    )


class _ClassifyWorkerLoss:
    """Loses its worker (``BrokenExecutor``) while classifying a HAR.

    Wraps the HAR classification worker, which runs in the study
    process.  ``persistent=False`` fails only the first site classified
    in the run, which a retry outlives.  ``persistent=True`` fails every
    attempt at one site under the immediate lifetime model (the first
    such site seen), so that dataset's shard exhausts its attempts.
    Crawls always run normally.
    """

    def __init__(self, monkeypatch, *, persistent: bool) -> None:
        self.persistent = persistent
        self.failures = 0
        self.target: str | None = None
        self.worker = httparchive._sanitize_and_classify
        monkeypatch.setattr(httparchive, "_sanitize_and_classify", self)

    def __call__(self, item):
        if self._strikes(item):
            self.failures += 1
            raise BrokenExecutor("worker lost while classifying")
        return self.worker(item)

    def _strikes(self, item) -> bool:
        if not self.persistent:
            return self.failures == 0
        site, _, model = item
        if self.target is None and model == "immediate":
            self.target = site
        return site == self.target


@pytest.mark.slow
@pytest.mark.golden
class TestInertness:
    def test_journalled_run_digests_golden(self, tmp_path):
        """The ISSUE's inertness differential: runlog active, zero
        failures => digest byte-identical to the seed golden."""
        config = _config()
        cache = StudyCache(tmp_path)
        study = Study.run(config, cache=cache)
        assert study_digest(study) == GOLDEN_DIGEST
        assert study.coverage is not None and study.coverage.complete
        events = _journal_events(cache, config)
        assert events[0] == "run-start"
        assert events[-1] == "run-finish"
        assert _events_by_stage_kind(cache, config, "shard-finish") == {
            "crawl": CRAWL_SHARDS, "classify": CLASSIFY_SHARDS,
        }

    def test_warm_rerun_skips_and_digests_golden(self, tmp_path):
        config = _config()
        cache = StudyCache(tmp_path)
        Study.run(config, cache=cache)
        study = Study.run(config, cache=cache)
        assert study_digest(study) == GOLDEN_DIGEST
        assert _events_by_stage_kind(cache, config, "shard-skip") == {
            "crawl": CRAWL_SHARDS, "classify": CLASSIFY_SHARDS,
        }
        assert _journal_events(cache, config).count("shard-start") == 0

    def test_cacheless_run_has_no_coverage(self):
        study = Study.run(
            StudyConfig(seed=7, n_sites=60, dns_study_days=0.25)
        )
        assert study.coverage is None

    def test_null_context_is_a_fresh_fail_fast_run_context(self):
        first = RunContext.null()
        assert first is not RunContext.null()
        for context in (first, first.detached()):
            assert type(context) is RunContext
            assert isinstance(context.journal, _NoJournal)
            assert context.max_attempts == 1

    def test_resume_requires_a_cache(self):
        with pytest.raises(ValueError, match="resume"):
            Study.run(_config(), resume=True)

    def test_observer_requires_a_cache(self):
        with pytest.raises(ValueError, match="observer"):
            Study.run(_config(), observer=lambda record: None)


@pytest.mark.slow
@pytest.mark.golden
class TestWorkerCrashRecovery:
    def test_recovered_crashes_digest_golden(self, tmp_path):
        """worker-crash strikes a quarter of tasks once each; after
        re-dispatch the study output is byte-identical to 'none'."""
        config = _config(fault_profile="worker-crash")
        cache = StudyCache(tmp_path)
        study = Study.run(config, cache=cache)
        assert study_digest(study) == GOLDEN_DIGEST
        assert study.coverage.complete
        events = _journal_events(cache, config)
        assert "chunk-failed" in events  # crashes really happened
        assert "shard-quarantined" not in events

    def test_classify_worker_loss_is_retried_to_golden(
        self, tmp_path, monkeypatch
    ):
        """A worker lost mid-classification is retried like a crawl
        worker: the run completes byte-identical to the golden."""
        config = _config()
        cache = StudyCache(tmp_path)
        worker = _ClassifyWorkerLoss(monkeypatch, persistent=False)
        study = Study.run(config, cache=cache)
        assert worker.failures == 1
        assert study_digest(study) == GOLDEN_DIGEST
        assert study.coverage.complete
        failed = [
            record for record in _journal_records(cache, config)
            if record["event"] == "chunk-failed"
        ]
        assert [record["stage"][:9] for record in failed] == ["classify-"]
        assert failed[0]["error"] == "BrokenExecutor"
        assert "shard-quarantined" not in _journal_events(cache, config)

    @pytest.mark.parametrize("shards, digest", [
        (1, "767c8045078ddc15e796dbcf5d58a4e7"),
        (2, "2ba88e0499c186b4f9d240c6e665dbd1"),
        (4, "03e0035397ac5b50f42651c976213ad9"),
    ])
    def test_persistent_classify_worker_loss_quarantines_the_shard(
        self, tmp_path, monkeypatch, shards, digest
    ):
        """The quarantined classify shard folds as the empty dataset,
        cold and on a warm re-run over the same cache alike."""
        config = _config(shards=shards)
        cache = StudyCache(tmp_path)
        worker = _ClassifyWorkerLoss(monkeypatch, persistent=True)
        study = Study.run(config, cache=cache)
        coverage = study.coverage
        assert not coverage.complete
        assert coverage.shards_quarantined == 1
        assert worker.target in coverage.excluded_domains
        assert worker.target not in (
            study.datasets["har-immediate"].classifications
        )
        assert study_digest(study) != GOLDEN_DIGEST
        assert study_digest(study) == digest
        quarantined = [
            record for record in _journal_records(cache, config)
            if record["event"] == "shard-quarantined"
        ]
        assert [record["stage"] for record in quarantined] == [
            "classify-har-immediate"
        ]
        warm = Study.run(config, cache=cache)
        assert study_digest(warm) == digest
        assert warm.coverage == coverage

    def test_strict_mode_fails_fast_with_the_original_error(self, tmp_path):
        with pytest.raises(WorkerCrashError):
            Study.run(
                _config(fault_profile="worker-crash"),
                cache=StudyCache(tmp_path), strict=True,
            )

    def test_cacheless_run_fails_fast_with_the_original_error(self):
        """A cacheless run never retries: the first crash surfaces."""
        with pytest.raises(WorkerCrashError) as info:
            Study.run(_config(fault_profile="worker-crash"))
        assert str(info.value).endswith("(attempt 0)")


class _Drain(Exception):
    """What an observer raises to stop a run, like serve's drain."""


def _drain_on(event: str, nth: int = 1):
    """An observer that raises on the ``nth`` record of ``event``."""
    seen = []

    def observer(record: dict) -> None:
        if record["event"] == event:
            seen.append(record)
            if len(seen) == nth:
                raise _Drain(event)

    return observer


def _count_fsyncs(monkeypatch) -> list:
    calls = []
    real = os.fsync

    def counted(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr("repro.runlog.journal.os.fsync", counted)
    return calls


@pytest.mark.slow
class TestJournalSync:
    """Only ``shard-skip`` records go unsynced until the next synced
    record or the journal's close."""

    def test_fsyncs_per_study(self, tmp_path, monkeypatch):
        # 200 sites in 8 shards: 8 stages (3 crawls, 5 classified
        # datasets) of 8 shards each.  Cold: run-start, 64 shard-start,
        # 64 shard-finish, run-finish.  Warm: run-start and run-finish;
        # the 64 shard-skip records ride on run-finish's fsync.
        config = StudyConfig(seed=7, n_sites=200, dns_study_days=0.25,
                             shards=8)
        cache = StudyCache(tmp_path)
        calls = _count_fsyncs(monkeypatch)
        Study.run(config, cache=cache)
        assert len(calls) == 130
        calls.clear()
        Study.run(config, cache=cache)
        assert len(calls) == 2
        assert _journal_events(cache, config).count("shard-skip") == 64

    def test_drain_on_a_skip_resumes_to_the_uninterrupted_digest(
        self, tmp_path, monkeypatch
    ):
        config = _config()
        cache = StudyCache(tmp_path)
        calls = _count_fsyncs(monkeypatch)
        # The fsync count as each journal starts to close.
        at_close = []
        real_close = RunJournal.close

        def close(journal) -> None:
            at_close.append(len(calls))
            real_close(journal)

        monkeypatch.setattr(RunJournal, "close", close)

        def drained_run(observer) -> int:
            """Run until ``observer`` drains; the fsyncs made before
            the journal closed."""
            with pytest.raises(_Drain):
                Study.run(config, cache=cache, resume=True, observer=observer)
            return at_close[-1]

        # A cold run stops after two shards finish, so the next run
        # finds part of its work cached and stops on its first skip.
        drained_run(_drain_on("shard-finish", nth=2))
        calls.clear()
        assert drained_run(_drain_on("shard-skip")) == 0
        # The resumed journal keeps its run-start; close() fsyncs the
        # one pending record, the skip the drain stopped on.
        assert len(calls) == 1
        assert _journal_records(cache, config)[-1]["event"] == "shard-skip"
        study = Study.run(config, cache=cache, resume=True)
        assert study_digest(study) == GOLDEN_DIGEST
        assert study.coverage.complete


@pytest.mark.slow
class TestPoisonQuarantine:
    def test_poisoned_shards_degrade_gracefully(self, tmp_path):
        config = _config(fault_profile="worker-poison")
        cache = StudyCache(tmp_path)
        study = Study.run(config, cache=cache)
        coverage = study.coverage
        assert not coverage.complete
        assert coverage.shards_quarantined > 0
        assert coverage.excluded_domains
        assert coverage.shards_ok + coverage.shards_quarantined == (
            coverage.shards_total
        )
        # A degraded run must never digest-collide with a complete one.
        assert study_digest(study) != GOLDEN_DIGEST
        events = _journal_events(cache, config)
        assert "shard-quarantined" in events
        assert events[-1] == "run-finish"
        # Quarantine is per-stage: each excluded domain is really
        # missing from at least one dataset (the one its lost shard
        # fed), even if other crawls still observed it.
        assert all(
            any(domain not in dataset.classifications
                for dataset in study.datasets.values())
            for domain in coverage.excluded_domains
        )

    def test_report_carries_the_coverage_block(self, tmp_path):
        study = Study.run(
            _config(fault_profile="worker-poison"),
            cache=StudyCache(tmp_path),
        )
        report = generate_report(study, include_dns_study=False)
        assert "## Run coverage" in report
        assert "PARTIAL" in report
        assert study.coverage.excluded_domains[0] in report

    def test_no_classify_artefact_cached_for_quarantined_shards(
        self, tmp_path
    ):
        """The cache-poisoning hazard: a quarantined crawl shard must
        not leave an (empty) classified dataset under its full shard
        key, or a later healthy run would inherit the hole."""
        config = _config(fault_profile="worker-poison")
        cache = StudyCache(tmp_path)
        first = Study.run(config, cache=cache)
        assert not first.coverage.complete
        # Re-run warm: crawl shards that finished load from cache, the
        # quarantined ones poison again (same deterministic strikes),
        # and the digest is reproduced exactly.
        second = Study.run(config, cache=cache)
        assert study_digest(second) == study_digest(first)
        assert second.coverage.shards_quarantined == (
            first.coverage.shards_quarantined
        )


@pytest.mark.slow
@pytest.mark.golden
class TestCacheRot:
    def test_rotted_artefacts_recover_by_eviction(self, tmp_path):
        config = _config(fault_profile="cache-rot")
        cache = StudyCache(tmp_path)
        cold = Study.run(config, cache=cache)
        assert study_digest(cold) == GOLDEN_DIGEST
        events = _journal_events(cache, config)
        assert "cache-rot" in events  # rot really struck
        # Warm rerun: the rotted entries fail to load, evict, and the
        # shards recompute — still golden, still complete.
        warm = Study.run(config, cache=cache)
        assert study_digest(warm) == GOLDEN_DIGEST
        assert warm.coverage.complete
