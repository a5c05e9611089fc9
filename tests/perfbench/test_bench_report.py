"""Tests for the BENCH_*.json writers, trajectory and comparator."""

from __future__ import annotations

import json

import pytest

from repro.perfbench import (
    BENCH_SCHEMA,
    CheckFailure,
    MicroResult,
    check_pipeline,
    host_metadata,
    load_bench,
    write_hotpath_bench,
    write_pipeline_bench,
)
from repro.perfbench.pipeline import PipelineRun
from repro.perfbench.report import render_check_report
from repro.runtime.profile import StageTiming, StageTimings


def _run(label="golden", wall=1.0, digest="abc123") -> PipelineRun:
    timings = StageTimings(stages=[
        StageTiming(name="crawl", seconds=wall * 0.8, items=100),
        StageTiming(name="classify", seconds=wall * 0.2, items=100),
    ])
    return PipelineRun(
        label=label, seed=7, n_sites=120, wall_s=wall, digest=digest,
        peak_rss_kb=50_000, repeats=3, timings=timings,
    )


class TestPipelineWriter:
    def test_writes_schema_host_and_stages(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        payload = write_pipeline_bench([_run()], path, label="PR3")
        assert path.exists()
        loaded = load_bench(path)
        assert loaded == payload
        assert loaded["schema"] == BENCH_SCHEMA
        assert loaded["host"]["python"] == host_metadata()["python"]
        run = loaded["runs"][0]
        assert run["label"] == "golden"
        assert [stage["name"] for stage in run["stages"]] == [
            "crawl", "classify"
        ]

    def test_history_is_appended_and_speedup_vs_oldest(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        write_pipeline_bench([_run(wall=2.0)], path, label="baseline")
        payload = write_pipeline_bench([_run(wall=1.0)], path, label="PR3")
        labels = [entry["label"] for entry in payload["history"]]
        assert labels == ["baseline", "PR3"]
        assert payload["speedup_vs_oldest"]["golden"] == pytest.approx(2.0)

    def test_rerecording_a_label_replaces_its_entry(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        write_pipeline_bench([_run(wall=2.0)], path, label="baseline")
        write_pipeline_bench([_run(wall=1.5)], path, label="PR3")
        payload = write_pipeline_bench([_run(wall=1.0)], path, label="PR3")
        labels = [entry["label"] for entry in payload["history"]]
        assert labels == ["baseline", "PR3"]
        assert payload["history"][-1]["walls_s"]["golden"] == 1.0

    def test_partial_rerecord_preserves_other_scales(self, tmp_path):
        # CI's --check needs the smoke run; a later `--scales golden`
        # re-record must carry it over instead of clobbering it.
        path = tmp_path / "BENCH_pipeline.json"
        smoke = _run(label="smoke", wall=0.3, digest="smk")
        write_pipeline_bench([smoke, _run(wall=2.0)], path, label="base")
        payload = write_pipeline_bench([_run(wall=1.0)], path, label="PR3")
        labels = [run["label"] for run in payload["runs"]]
        assert labels == ["golden", "smoke"]  # sorted by n_sites
        kept = next(r for r in payload["runs"] if r["label"] == "smoke")
        assert kept["digest"] == "smk"

    def test_unsupported_schema_rejected(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(CheckFailure, match="schema"):
            load_bench(path)


class TestHotpathWriter:
    def test_microbenchmark_payload(self, tmp_path):
        path = tmp_path / "BENCH_hotpath.json"
        results = [
            MicroResult("hpack-encode", 1000, 0.5, note="x"),
            MicroResult("page-load", 200, 0.25),
        ]
        write_hotpath_bench(results, path, label="PR3")
        loaded = load_bench(path)
        assert loaded["kind"] == "hotpath"
        first = loaded["benchmarks"][0]
        assert first["name"] == "hpack-encode"
        assert first["ops_per_s"] == pytest.approx(2000.0)
        assert loaded["history"] == []

    def test_earlier_labels_move_into_history(self, tmp_path):
        path = tmp_path / "BENCH_hotpath.json"
        write_hotpath_bench([MicroResult("warm-study", 60, 0.5)], path,
                            label="before")
        write_hotpath_bench([MicroResult("warm-study", 60, 0.25)], path,
                            label="after")
        write_hotpath_bench([MicroResult("warm-study", 60, 0.2)], path,
                            label="after")
        loaded = load_bench(path)
        assert loaded["label"] == "after"
        assert loaded["benchmarks"][0]["ops_per_s"] == pytest.approx(300.0)
        (before,) = loaded["history"]
        assert before["label"] == "before"
        assert before["ops_per_s"] == {"warm-study": pytest.approx(120.0)}


class TestComparator:
    def _committed(self, tmp_path, wall=1.0, digest="abc123"):
        path = tmp_path / "BENCH_pipeline.json"
        write_pipeline_bench([_run(wall=wall, digest=digest)], path,
                             label="committed")
        return load_bench(path)

    def test_pass_within_tolerance(self, tmp_path):
        committed = self._committed(tmp_path, wall=1.0)
        outcome = check_pipeline(_run(wall=1.2), committed, tolerance=0.25)
        assert outcome.passed
        assert outcome.regression == pytest.approx(0.2)
        assert "PASS" in render_check_report(outcome)

    def test_fail_beyond_tolerance(self, tmp_path):
        committed = self._committed(tmp_path, wall=1.0)
        outcome = check_pipeline(_run(wall=1.3), committed, tolerance=0.25)
        assert not outcome.passed
        assert "FAIL" in render_check_report(outcome)

    def test_digest_mismatch_fails_even_when_faster(self, tmp_path):
        committed = self._committed(tmp_path, digest="abc123")
        outcome = check_pipeline(
            _run(wall=0.1, digest="deadbeef"), committed, tolerance=0.25
        )
        assert not outcome.passed
        assert not outcome.digest_ok
        assert "MISMATCH" in render_check_report(outcome)

    def test_missing_scale_raises(self, tmp_path):
        committed = self._committed(tmp_path)
        with pytest.raises(CheckFailure, match="no run at scale"):
            check_pipeline(_run(label="stress"), committed)

    def test_improvements_always_pass_wall_clock(self, tmp_path):
        committed = self._committed(tmp_path, wall=1.0)
        outcome = check_pipeline(_run(wall=0.4), committed, tolerance=0.0)
        assert outcome.wall_ok
