"""Unit tests for the longitudinal analysis and runner."""

from __future__ import annotations

import pytest

from repro.analysis.longitudinal import (
    LongitudinalResult,
    half_life,
    longitudinal_report,
)
from repro.analysis.study import StudyConfig
from repro.runtime import StageTimings
from repro.sweep import SweepCell
from repro.sweep.runner import CellResult, DatasetSummary


class TestHalfLife:
    def test_exact_halving(self):
        assert half_life([100.0, 50.0]) == pytest.approx(1.0)

    def test_interpolates_between_epochs(self):
        # 100 -> 80 -> 40: crosses 50 between epochs 1 and 2.
        assert half_life([100.0, 80.0, 40.0]) == pytest.approx(1.75)

    def test_never_halves(self):
        assert half_life([100.0, 90.0, 95.0]) is None

    def test_growth_has_no_half_life(self):
        assert half_life([100.0, 150.0, 200.0]) is None

    def test_empty_and_zero_start(self):
        assert half_life([]) is None
        assert half_life([0.0, 0.0]) is None

    def test_flat_plateau_at_half(self):
        assert half_life([100.0, 50.0, 50.0]) == pytest.approx(1.0)


def _cell(epoch: int, redundant: int, churn=()) -> CellResult:
    summary = DatasetSummary(
        name="alexa",
        h2_sites=100,
        h2_connections=200,
        redundant_sites=50,
        redundant_connections=redundant,
        redundant_site_share=0.5,
        cause_sites={},
        cause_connections={"CERT": redundant // 2, "IP": redundant // 2,
                           "CRED": 0},
    )
    return CellResult(
        cell=SweepCell(StudyConfig(epochs=epoch), (("epochs", epoch),)),
        digest=f"d{epoch}", headline=None, datasets={"alexa": summary},
        timings=StageTimings(), churn=tuple(churn),
    )


class TestResultRendering:
    def make_result(self) -> LongitudinalResult:
        return LongitudinalResult(
            policy="shard-consolidation",
            config=StudyConfig(seed=7, n_sites=40),
            cells=(
                _cell(0, 120),
                _cell(1, 80, (("shard-drop", 5),)),
                _cell(2, 50, (("shard-drop", 3),)),
            ),
        )

    def test_render_contains_every_section(self):
        text = self.make_result().render()
        assert "Reuse trajectory per dataset" in text
        assert "Attribution drift" in text
        assert "half-life" in text
        assert "Churn ledger" in text
        assert "shard-drop=5" in text

    def test_half_life_row_reports_decay(self):
        rows = self.make_result().half_life_rows()
        assert rows == [["alexa", "120", "50", "1.7 epochs"]]

    def test_reuse_rows_delta_against_epoch_zero(self):
        rows = self.make_result().reuse_rows()
        assert rows[0][-1] == "+0.0 pp"  # epoch 0 vs itself
        assert rows[-1][-1] == "-35.0 pp"  # 25% vs 60%

    def test_digests_in_epoch_order(self):
        assert self.make_result().digests() == [
            (0, "d0"), (1, "d1"), (2, "d2")
        ]

    def test_report_rejects_epoch_gaps(self):
        broken = LongitudinalResult(
            policy="mixed",
            config=StudyConfig(),
            cells=(_cell(0, 10), _cell(2, 5)),
        )
        with pytest.raises(ValueError, match="without gaps"):
            longitudinal_report(broken)


@pytest.mark.slow
class TestRunner:
    def test_runner_snapshots_every_epoch(self):
        from repro.evolve import run_longitudinal

        result = run_longitudinal(
            StudyConfig(seed=7, n_sites=30, dns_study_days=0.25),
            policy="shard-consolidation",
            epochs=1,
        )
        assert result.epochs == [0, 1]
        assert result.cells[0].churn == ()
        assert result.cells[1].churn  # consolidation fired
        assert result.cells[0].digest != result.cells[1].digest
        assert "shard-consolidation" in result.render()

    def test_runner_rejects_unknown_policy(self):
        from repro.evolve import run_longitudinal

        with pytest.raises(ValueError, match="unknown evolution policy"):
            run_longitudinal(StudyConfig(), policy="bogus", epochs=1)

    def test_runner_rejects_negative_epochs(self):
        from repro.evolve import run_longitudinal

        with pytest.raises(ValueError, match="epochs"):
            run_longitudinal(StudyConfig(), policy="mixed", epochs=-1)
