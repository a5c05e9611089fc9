"""Tests for the peak-memory column of StageTimings (PR 3)."""

from __future__ import annotations

from repro.runtime import StageTimings
from repro.runtime.profile import StageTiming


class TestMemoryTracking:
    def test_disabled_by_default(self):
        timings = StageTimings()
        with timings.stage("work"):
            _ = [0] * 10_000
        assert timings.stages[0].peak_kb is None

    def test_peak_recorded_when_enabled(self):
        timings = StageTimings(memory=True)
        with timings.stage("alloc"):
            blob = bytearray(8 * 1024 * 1024)
            del blob
        stage = timings.stages[0]
        assert stage.peak_kb is not None
        assert stage.peak_kb >= 8 * 1024  # at least the 8 MiB blob

    def test_peak_resets_between_stages(self):
        timings = StageTimings(memory=True)
        with timings.stage("big"):
            blob = bytearray(8 * 1024 * 1024)
            del blob
        with timings.stage("small"):
            _ = bytearray(1024)
        big, small = timings.stages
        assert big.peak_kb >= 8 * 1024
        assert small.peak_kb < big.peak_kb

    def test_render_shows_memory_column_only_when_present(self):
        timings = StageTimings()
        timings.stages.append(StageTiming(name="plain", seconds=1.0))
        assert "KiB" not in timings.render()
        timings.stages.append(
            StageTiming(name="tracked", seconds=0.5, peak_kb=2_048)
        )
        rendered = timings.render()
        assert "2,048 KiB peak" in rendered
        # Untracked rows render a placeholder, not a bogus number.
        assert "—" in rendered

    def test_nested_stage_does_not_erase_parent_peak(self):
        # reset_peak() is process-global; a child stage must not make
        # the enclosing stage forget allocations made before the child.
        timings = StageTimings(memory=True)
        with timings.stage("outer"):
            blob = bytearray(16 * 1024 * 1024)
            del blob  # peak hit 16 MiB, then released pre-child
            with timings.stage("inner"):
                _ = bytearray(1024)
        inner, outer = timings.stages  # children complete first
        assert inner.name == "inner"
        assert outer.peak_kb >= 16 * 1024
        assert inner.peak_kb < 16 * 1024

    def test_merged_takes_max_peak(self):
        first = StageTimings()
        first.stages.append(StageTiming(name="s", seconds=1.0, peak_kb=100))
        second = StageTimings()
        second.stages.append(StageTiming(name="s", seconds=2.0, peak_kb=700))
        merged = StageTimings.merged([first, second])
        assert merged.stages[0].seconds == 3.0
        assert merged.stages[0].peak_kb == 700
