"""Per-stage wall-clock instrumentation for the study pipeline.

Simulated time (:mod:`repro.util.clock`) never touches the wall clock;
this module is the opposite — it measures how long the *host* spends in
each pipeline stage, so ``repro study --profile`` and the runtime
benchmarks can show where executor parallelism pays off.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = ["StageTiming", "StageTimings", "null_timings"]


@dataclass
class StageTiming:
    """One completed pipeline stage."""

    name: str
    seconds: float
    items: int | None = None
    #: Peak python heap allocation during the stage (tracemalloc), in
    #: KiB; ``None`` when the run did not track memory.
    peak_kb: int | None = None
    #: Cyclic-collector passes (all generations) that ran during the
    #: stage; the pipeline pauses the collector, so this stays 0.
    gc_passes: int = 0

    @property
    def items_per_second(self) -> float | None:
        if self.items is None or self.seconds <= 0:
            return None
        return self.items / self.seconds


@dataclass
class StageTimings:
    """Ordered wall-clock record of one pipeline run.

    With ``memory=True`` every stage additionally records its peak
    Python heap allocation via :mod:`tracemalloc`.  Tracing costs real
    time (allocation bookkeeping slows the interpreter noticeably), so
    it is off by default and wall-clock benchmarks must not enable it.
    """

    enabled: bool = True
    memory: bool = False
    stages: list[StageTiming] = field(default_factory=list)
    #: Called as ``observer(name, items)`` when a stage *starts* (before
    #: any work runs), even when timing itself is disabled.  The serve
    #: layer uses this to stream ``stage_start`` events; exceptions it
    #: raises propagate, which is how a draining server aborts a run at
    #: the next stage boundary.
    observer: Callable[[str, int | None], None] | None = field(
        default=None, repr=False, compare=False,
    )
    #: Per-active-stage maximum peaks; makes nested stages correct:
    #: ``reset_peak`` is process-global, so before a child stage resets
    #: it, the parent's window peak is banked here, and the child's
    #: final peak is folded back into the parent on exit.
    _peak_stack: list[int] = field(default_factory=list, repr=False)

    @contextmanager
    def stage(self, name: str, *, items: int | None = None) -> Iterator[None]:
        """Time one stage; a no-op when disabled (observer still fires)."""
        if self.observer is not None:
            self.observer(name, items)
        if not self.enabled:
            yield
            return
        peak_kb: int | None = None
        owns_tracing = False
        if self.memory:
            if tracemalloc.is_tracing():
                if self._peak_stack:
                    self._peak_stack[-1] = max(
                        self._peak_stack[-1],
                        tracemalloc.get_traced_memory()[1],
                    )
            else:
                tracemalloc.start()
                owns_tracing = True
            tracemalloc.reset_peak()
            self._peak_stack.append(0)
        passes_before = _gc_passes()
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            gc_passes = _gc_passes() - passes_before
            if self.memory:
                window_peak = tracemalloc.get_traced_memory()[1]
                peak = max(self._peak_stack.pop(), window_peak)
                peak_kb = peak // 1024
                if self._peak_stack:
                    # Peak during a child is also peak during its parent.
                    self._peak_stack[-1] = max(self._peak_stack[-1], peak)
                if owns_tracing:
                    tracemalloc.stop()
            self.stages.append(
                StageTiming(
                    name=name, seconds=seconds, items=items, peak_kb=peak_kb,
                    gc_passes=gc_passes,
                )
            )

    def record(self, name: str, seconds: float, *, items: int | None = None) -> None:
        if self.enabled:
            self.stages.append(StageTiming(name=name, seconds=seconds, items=items))

    @classmethod
    def merged(cls, runs: Iterable["StageTimings"]) -> "StageTimings":
        """Aggregate many runs' timings by stage name.

        Seconds and item counts sum per stage; stages keep the order of
        their first appearance.  This is how sweeps report one combined
        profile over all their cells.
        """
        combined: dict[str, StageTiming] = {}
        for run in runs:
            for stage in run.stages:
                existing = combined.get(stage.name)
                if existing is None:
                    combined[stage.name] = StageTiming(
                        name=stage.name, seconds=stage.seconds,
                        items=stage.items, peak_kb=stage.peak_kb,
                        gc_passes=stage.gc_passes,
                    )
                    continue
                existing.seconds += stage.seconds
                existing.gc_passes += stage.gc_passes
                if stage.items is not None:
                    existing.items = (existing.items or 0) + stage.items
                if stage.peak_kb is not None:
                    # Peaks aggregate by maximum, not sum: the merged
                    # view answers "how much memory did this stage ever
                    # need at once".
                    existing.peak_kb = max(existing.peak_kb or 0, stage.peak_kb)
        out = cls(enabled=True)
        out.stages = list(combined.values())
        return out

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def seconds_for(self, name: str) -> float:
        return sum(stage.seconds for stage in self.stages if stage.name == name)

    def render(self) -> str:
        """An aligned per-stage table for the CLI's ``--profile`` flag."""
        if not self.stages:
            return "Stage timings: (none recorded)"
        width = max(len(stage.name) for stage in self.stages)
        with_memory = any(stage.peak_kb is not None for stage in self.stages)
        lines = ["Stage timings"]
        for stage in self.stages:
            rate = stage.items_per_second
            memory = ""
            if with_memory:
                memory = (
                    f"  {stage.peak_kb:>9,} KiB peak"
                    if stage.peak_kb is not None else f"  {'—':>13}    "
                )
            suffix = ""
            if stage.items is not None:
                suffix = f"  ({stage.items} items"
                if rate is not None:
                    suffix += f", {rate:,.1f}/s"
                suffix += ")"
            if stage.gc_passes > 0:
                suffix += f"  {stage.gc_passes} gc passes"
            lines.append(
                f"  {stage.name:<{width}}  {stage.seconds:>8.3f} s{memory}{suffix}"
            )
        lines.append(f"  {'total':<{width}}  {self.total_seconds:>8.3f} s")
        return "\n".join(lines)


def _gc_passes() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


def null_timings() -> StageTimings:
    """A disabled recorder for callers that do not profile."""
    return StageTimings(enabled=False)
