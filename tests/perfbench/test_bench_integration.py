"""End-to-end tests for `repro bench` (smoke scale) and the micro suite."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.perfbench import load_bench, run_pipeline_bench
from repro.perfbench.micro import _bench_hpack_encode, _bench_resolver_cache
from repro.perfbench.pipeline import SCALES


class TestPipelineBench:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_pipeline_bench("galactic")

    @pytest.mark.slow
    def test_smoke_run_records_stages_digest_and_rss(self):
        run = run_pipeline_bench("smoke", repeats=1)
        assert run.n_sites == SCALES["smoke"].n_sites
        assert run.wall_s > 0
        assert len(run.digest) == 32  # blake2b-128 hex
        assert run.peak_rss_kb > 0
        stage_names = [stage.name for stage in run.timings.stages]
        assert "crawl-httparchive" in stage_names
        assert "classify-datasets" in stage_names


class TestMicrobenchmarks:
    def test_hpack_encode_micro(self):
        result = _bench_hpack_encode(repeat=1)
        assert result.iterations == 400
        assert result.seconds > 0
        assert result.ops_per_s > 0

    def test_resolver_cache_micro(self):
        result = _bench_resolver_cache(repeat=1)
        assert result.iterations > 10_000
        assert result.to_dict()["name"] == "resolver-ttl-cache"


@pytest.mark.slow
class TestBenchCli:
    def test_bench_write_then_check_roundtrip(self, tmp_path, capsys):
        # Record a smoke-scale benchmark...
        code = main([
            "bench", "--scales", "smoke", "--repeat", "1",
            "--out-dir", str(tmp_path), "--label", "test",
            "--pipeline-only",
        ])
        assert code == 0
        payload = load_bench(tmp_path / "BENCH_pipeline.json")
        assert payload["history"][-1]["label"] == "test"
        # ...then verify a fresh run checks clean against it.
        code = main([
            "bench", "--check", "--check-scale", "smoke", "--repeat", "1",
            "--out-dir", str(tmp_path), "--tolerance", "2.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "digest      identical" in out

    def test_record_into_a_missing_nested_out_dir(self, tmp_path):
        out_dir = tmp_path / "not" / "yet"
        code = main([
            "bench", "--scales", "smoke", "--repeat", "1",
            "--out-dir", str(out_dir), "--label", "nested",
            "--pipeline-only",
        ])
        assert code == 0
        payload = load_bench(out_dir / "BENCH_pipeline.json")
        assert payload["history"][-1]["label"] == "nested"
        assert [path.name for path in out_dir.iterdir()] == [
            "BENCH_pipeline.json"
        ]

    def test_check_without_committed_file_errors(self, tmp_path, capsys):
        code = main([
            "bench", "--check", "--out-dir", str(tmp_path),
        ])
        assert code == 2
        assert "no committed" in capsys.readouterr().err
