"""Tests for the scenario sweep engine and its cache integration."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.robustness import robustness_report
from repro.analysis.study import StudyConfig
from repro.cli import main
from repro.store import CacheStats, StudyCache
from repro.sweep import SweepSpec, run_sweep

GOLDEN_DIGEST = (
    Path(__file__).resolve().parents[1] / "golden" / "digest.txt"
).read_text().strip()


class TestSweepSpec:
    def test_cells_are_variant_major(self):
        spec = SweepSpec(
            base=StudyConfig(n_sites=50),
            seeds=(7, 8),
            axes=(("alexa_share", (0.3, 0.5)),),
        )
        cells = spec.cells()
        assert spec.n_cells == len(cells) == 4
        assert [cell.config.alexa_share for cell in cells] == [0.3, 0.3, 0.5, 0.5]
        assert [cell.seed for cell in cells] == [7, 8, 7, 8]
        assert cells[0].variant_label() == "alexa_share=0.3"
        assert cells[0].label() == "seed=7 alexa_share=0.3"

    def test_pure_seed_sweep_has_base_variant(self):
        cells = SweepSpec(base=StudyConfig(n_sites=50), seeds=(7, 9)).cells()
        assert [cell.seed for cell in cells] == [7, 9]
        assert cells[0].variant_label() == "base"

    def test_parse_axes_types(self):
        axes = SweepSpec.parse_axes(
            ["n_sites=120,240", "alexa_share=0.3",
             "har_models=endless+immediate,endless"]
        )
        assert axes == (
            ("n_sites", (120, 240)),
            ("alexa_share", (0.3,)),
            ("har_models", (("endless", "immediate"), ("endless",))),
        )

    @pytest.mark.parametrize(
        "spec",
        ["n_sites", "n_sites=", "n_sites=x", "bogus_field=1", "seed=1,2"],
    )
    def test_parse_axes_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            SweepSpec.parse_axes([spec])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seeds": ()},
            {"seeds": (7, 7)},
            {"axes": (("seed", (1, 2)),)},
            {"axes": (("no_such_field", (1,)),)},
            {"axes": (("n_sites", ()),)},
            {"axes": (("n_sites", (10,)), ("n_sites", (20,)))},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            SweepSpec(base=StudyConfig(), **{"seeds": (7,), **kwargs})

    def test_bad_axis_value_fails_before_running(self):
        spec = SweepSpec(
            base=StudyConfig(n_sites=50),
            seeds=(7,),
            axes=(("alexa_variants", (("bogus",),)),),
        )
        with pytest.raises(ValueError):
            spec.cells()

    @pytest.mark.parametrize(
        "axis",
        [
            ("har_models", (("endless", "endless"),)),
            ("alexa_variants", (("fetch", "fetch"),)),
        ],
    )
    def test_duplicate_variant_entries_rejected(self, axis):
        spec = SweepSpec(
            base=StudyConfig(n_sites=50), seeds=(7,), axes=(axis,)
        )
        with pytest.raises(ValueError, match="duplicate"):
            spec.cells()


@pytest.mark.slow
class TestRunSweep:
    def test_seed7_cell_matches_golden_digest(self):
        # The acceptance anchor: a sweep cell configured exactly like
        # the golden snapshot must reproduce the golden study digest.
        spec = SweepSpec(
            base=StudyConfig(n_sites=120, dns_study_days=0.25),
            seeds=(7, 8, 9),
        )
        result = run_sweep(spec)
        by_seed = {cell.cell.seed: cell for cell in result.cells}
        assert by_seed[7].digest == GOLDEN_DIGEST
        # Different seeds must diverge (otherwise the sweep proves nothing).
        assert len({cell.digest for cell in result.cells}) == 3
        report = robustness_report(result)
        assert "Robustness report — 3 cells" in report
        assert GOLDEN_DIGEST in report
        assert "HAR endless redundant share" in report

    def test_warm_cache_second_run_does_zero_crawl_work(self, tmp_path):
        spec = SweepSpec(
            base=StudyConfig(n_sites=60, dns_study_days=0.25),
            seeds=(7, 8),
            axes=(("har_models", (("endless", "immediate"), ("endless",))),),
        )
        cold_cache = StudyCache(tmp_path / "cache")
        cold = run_sweep(spec, cache=cold_cache)

        warm_cache = StudyCache(tmp_path / "cache")
        warm = run_sweep(spec, cache=warm_cache)

        # Identical results either way.
        assert [cell.digest for cell in warm.cells] == [
            cell.digest for cell in cold.cells
        ]
        # The warm run performed zero crawl and classification work:
        # every such stage records zero items in every cell...
        for cell in warm.cells:
            for stage in cell.timings.stages:
                if stage.name.startswith("crawl-") or stage.name == "classify-datasets":
                    assert stage.items == 0, (cell.cell.label(), stage)
        # ...and the cache saw only hits: one per classify node (2 seeds
        # x 5 + 4 datasets) and Alexa share, plus the one fetch-run
        # shard each full cell's headline reads.  No summary reads the
        # HAR corpus, so its shards stay on disk.
        counters = warm_cache.counters
        assert "har-crawl" not in counters
        assert counters["alexa-crawl"] == CacheStats(hits=2)
        assert counters["alexa-share"] == CacheStats(hits=4)
        assert counters["classify"] == CacheStats(hits=18)

    def test_cold_sweep_shares_stages_between_cells(self, tmp_path):
        # Cells that differ only in lifetime models share the same
        # crawls, so even the *cold* sweep hits the cache across cells.
        spec = SweepSpec(
            base=StudyConfig(n_sites=60, dns_study_days=0.25),
            seeds=(7,),
            axes=(("har_models", (("endless", "immediate"), ("endless",))),),
        )
        cache = StudyCache(tmp_path / "cache")
        run_sweep(spec, cache=cache)
        # Each crawl shard is crawled and written once; the second cell
        # hits the first cell's classify nodes (1 HAR + 3 Alexa) and so
        # leaves the crawl shards on disk.
        assert cache.counters["har-crawl"] == CacheStats(misses=1, writes=1)
        assert cache.counters["alexa-crawl"] == CacheStats(
            misses=2, writes=2
        )
        assert cache.counters["classify"].hits == 4

    def test_variant_without_required_datasets_reports_no_headline(self):
        spec = SweepSpec(
            base=StudyConfig(n_sites=40, dns_study_days=0.25),
            seeds=(7,),
            axes=(("alexa_variants", (("fetch",),)),),
        )
        result = run_sweep(spec)
        (cell,) = result.cells
        assert cell.headline is None
        assert "alexa-nofetch" not in cell.datasets
        assert "alexa" in cell.datasets
        report = robustness_report(result)
        assert "no cell produced headline statistics" in report

    def test_aggregated_timings_sum_items(self):
        spec = SweepSpec(
            base=StudyConfig(n_sites=40, dns_study_days=0.25), seeds=(7, 8)
        )
        result = run_sweep(spec)
        merged = result.timings()
        per_cell = [
            cell.timings.seconds_for("crawl-httparchive")
            for cell in result.cells
        ]
        assert merged.seconds_for("crawl-httparchive") == pytest.approx(
            sum(per_cell)
        )
        stage_names = [stage.name for stage in merged.stages]
        assert stage_names.count("crawl-httparchive") == 1


@pytest.mark.slow
class TestSweepCli:
    def test_sweep_command_renders_report(self, capsys, tmp_path):
        code = main([
            "sweep", "--sites", "40", "--seeds", "7,8",
            "--cache-dir", str(tmp_path / "cache"), "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Robustness report — 2 cells" in out
        assert "Stage timings" in out
        assert "har-crawl" in out  # cache stats table

    def test_sweep_with_grid(self, capsys, tmp_path):
        code = main([
            "sweep", "--sites", "40", "--seeds", "7",
            "--grid", "alexa_share=0.3,0.5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Variant: alexa_share=0.3" in out
        assert "Variant: alexa_share=0.5" in out

    def test_bad_grid_is_reported(self, capsys):
        assert main(["sweep", "--grid", "bogus=1"]) == 2
        assert "not sweepable" in capsys.readouterr().err

    def test_bad_axis_value_is_reported(self, capsys):
        # Bad tuple-axis *values* surface as a clean error too, not a
        # traceback from inside run_sweep.
        assert main(["sweep", "--grid", "alexa_variants=bogus"]) == 2
        assert "alexa_variants" in capsys.readouterr().err

    def test_bad_seeds_are_reported(self, capsys):
        assert main(["sweep", "--seeds", "7,x"]) == 2
        assert "bad --seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--executor", "bogus"],
            ["sweep", "--grid", "executor=bogus"],
            ["sweep", "--grid", "parallelism=0"],
        ],
    )
    def test_bad_executor_specs_are_reported(self, capsys, argv):
        # Executor specs validate with the other cell fields, so they
        # exit cleanly instead of raising inside run_sweep.
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
