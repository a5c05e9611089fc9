"""RunContext through the whole pipeline: inertness, recovery,
quarantine, strict mode and cache rot.

Every test here runs the golden-scale study (seed=7, n=120) under the
journalled per-shard path and holds it against the pinned golden
digest: the run layer must change **nothing** unless shards are
actually lost.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.report import generate_report
from repro.analysis.study import Study, StudyConfig
from repro.crawl import httparchive
from repro.runlog import WorkerCrashError, load_records, run_id
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

    def test_resume_requires_a_cache(self):
        with pytest.raises(ValueError, match="resume"):
            Study.run(_config(), resume=True)


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

    def test_persistent_classify_worker_loss_quarantines_the_shard(
        self, tmp_path, monkeypatch
    ):
        config = _config()
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
        quarantined = [
            record for record in _journal_records(cache, config)
            if record["event"] == "shard-quarantined"
        ]
        assert [record["stage"] for record in quarantined] == [
            "classify-har-immediate"
        ]

    def test_strict_mode_fails_fast_with_the_original_error(self, tmp_path):
        with pytest.raises(WorkerCrashError):
            Study.run(
                _config(fault_profile="worker-crash"),
                cache=StudyCache(tmp_path), strict=True,
            )


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
