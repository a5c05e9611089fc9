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

__all__ = ["StageTiming", "StageTimings", "StageWindow"]


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

    A stage is timed either as a block (:meth:`stage`) or as a window
    (:meth:`open`): a window starts when its first shard is submitted
    and ends at its last :meth:`StageWindow.land`, so the windows of
    stages that run as one stream overlap, and their seconds may sum
    to more than the run's wall clock.

    With ``memory=True`` every stage additionally records its peak
    Python heap allocation via :mod:`tracemalloc`.  Tracing costs real
    time (allocation bookkeeping slows the interpreter noticeably), so
    it is off by default and wall-clock benchmarks must not enable it.
    Wall-clock timing is always on: it costs a few ``perf_counter``
    calls per stage.
    """

    memory: bool = False
    stages: list[StageTiming] = field(default_factory=list)
    #: Called as ``observer(name, items)`` when a stage *starts* (before
    #: any work runs).  The serve layer uses this to stream
    #: ``stage_start`` events; exceptions it raises propagate, which is
    #: how a draining server aborts a run at the next stage boundary.
    observer: Callable[[str, int | None], None] | None = field(
        default=None, repr=False, compare=False,
    )
    #: The stages being timed.  ``reset_peak`` is process-global, so
    #: every sample banks the peak since the last one into each open
    #: stage before resetting it; nested and overlapping stages alike
    #: keep their own maximum.
    _open: list["StageWindow"] = field(default_factory=list, repr=False)
    _owns_tracing: bool = field(default=False, repr=False)

    def open(self, name: str, *, items: int | None = None) -> "StageWindow":
        """Start a stage window, listed now, after telling the observer."""
        window = self._begin(name, items)
        self.stages.append(window.timing)
        return window

    @contextmanager
    def stage(self, name: str, *, items: int | None = None) -> Iterator[None]:
        """Time one block as a stage, listed when it ends."""
        window = self._begin(name, items)
        try:
            yield
        finally:
            window.land()
            window.close()
            self.stages.append(window.timing)

    def _begin(self, name: str, items: int | None) -> "StageWindow":
        if self.observer is not None:
            self.observer(name, items)
        if self.memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._owns_tracing = True
            self._sample()
        window = StageWindow(self, StageTiming(name=name, seconds=0.0,
                                               items=items))
        self._open.append(window)
        return window

    def _sample(self) -> None:
        """Bank the heap peak since the last sample into open stages."""
        if not self.memory or not tracemalloc.is_tracing():
            return
        peak = tracemalloc.get_traced_memory()[1]
        for window in self._open:
            window.peak = max(window.peak, peak)
        tracemalloc.reset_peak()

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
        out = cls()
        out.stages = list(combined.values())
        return out

    @property
    def total_seconds(self) -> float:
        """The stages' seconds summed; overlapping windows count twice."""
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
        lines.append(f"  {'sum':<{width}}  {self.total_seconds:>8.3f} s")
        return "\n".join(lines)


class StageWindow:
    """One stage being timed (see :meth:`StageTimings.open`)."""

    def __init__(self, timings: StageTimings, timing: StageTiming) -> None:
        self.timings = timings
        self.timing = timing
        self.peak = 0
        self._passes = _gc_passes()
        self._started = time.perf_counter()

    def land(self) -> None:
        """Extend the window to now: a shard of the stage landed."""
        self.timing.seconds = time.perf_counter() - self._started
        self.timing.gc_passes = _gc_passes() - self._passes
        self.timings._sample()

    def close(self, *, items: int | None = None) -> None:
        """Stop timing; ``items`` replaces a count not known at start."""
        timings = self.timings
        timings._sample()
        timings._open.remove(self)
        if items is not None:
            self.timing.items = items
        if timings.memory:
            self.timing.peak_kb = self.peak // 1024
            if not timings._open and timings._owns_tracing:
                tracemalloc.stop()
                timings._owns_tracing = False


def _gc_passes() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())
