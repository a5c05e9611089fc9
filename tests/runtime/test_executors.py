"""Unit tests for the executor abstraction."""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.runtime import (
    ProcessExecutor,
    SerialExecutor,
    TaskTimeoutError,
    ThreadExecutor,
    chunk_items,
    make_executor,
)
from repro.runtime.executor import default_workers


def _square(value: int) -> int:
    return value * value


def _boom(value: int) -> int:
    raise RuntimeError(f"boom {value}")


class _InjectedFault(RuntimeError):
    """A typed, picklable fault error (single-message, like the real
    ServFail/StreamResetError/CertificateError family)."""


def _fault_at_three(value: int) -> int:
    if value == 3:
        raise _InjectedFault(f"injected fault at {value}")
    return value


def _kill_worker(value: int) -> int:
    if value == 1:
        os._exit(13)  # simulates a worker crash (OOM-kill, segfault)
    return value


EXECUTOR_FACTORIES = [
    pytest.param(SerialExecutor, id="serial"),
    pytest.param(lambda: ThreadExecutor(2), id="thread"),
    pytest.param(lambda: ProcessExecutor(2), id="process"),
]


class TestChunkItems:
    def test_even_split(self):
        assert chunk_items([1, 2, 3, 4], 2) == [[1, 2], [3, 4]]

    def test_remainder_goes_last(self):
        assert chunk_items([1, 2, 3, 4, 5], 2) == [[1, 2], [3, 4], [5]]

    def test_chunk_size_larger_than_input(self):
        assert chunk_items([1, 2], 100) == [[1, 2]]

    def test_single_item_batches(self):
        assert chunk_items([1, 2, 3], 1) == [[1], [2], [3]]

    def test_empty_input(self):
        assert chunk_items([], 4) == []

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            chunk_items([1], 0)


class TestMapSites:
    @pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
    def test_preserves_input_order(self, factory):
        with factory() as executor:
            assert executor.map_sites(_square, list(range(25))) == [
                value * value for value in range(25)
            ]

    @pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
    def test_empty_site_list(self, factory):
        with factory() as executor:
            assert executor.map_sites(_square, []) == []

    @pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
    def test_single_item(self, factory):
        with factory() as executor:
            assert executor.map_sites(_square, [3]) == [9]

    def test_chunk_size_larger_than_input(self):
        with ThreadExecutor(2) as executor:
            assert executor.map_sites(
                _square, [1, 2, 3], chunk_size=50
            ) == [1, 4, 9]

    def test_single_item_chunks(self):
        with ProcessExecutor(2) as executor:
            assert executor.map_sites(
                _square, [1, 2, 3], chunk_size=1
            ) == [1, 4, 9]

    @pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
    def test_exceptions_propagate(self, factory):
        with factory() as executor:
            with pytest.raises(RuntimeError, match="boom"):
                executor.map_sites(_boom, [1, 2])

    def test_failure_cancels_outstanding_chunks(self):
        # A failing first chunk must not leave the worker churning
        # through every remaining (doomed) chunk before the exception
        # reaches the caller: pending futures are cancelled.
        executed = []
        lock = threading.Lock()

        def work(value: int) -> int:
            with lock:
                executed.append(value)
            if value == 0:
                raise RuntimeError("boom 0")
            return value

        with ThreadExecutor(1) as executor:
            with pytest.raises(RuntimeError, match="boom 0"):
                executor.map_sites(work, list(range(64)), chunk_size=1)
        # The single worker may race a chunk or two past the failure,
        # but cancellation must prevent it from draining the queue.
        assert len(executed) < 32

    def test_failure_keeps_executor_usable(self):
        with ThreadExecutor(2) as executor:
            with pytest.raises(RuntimeError):
                executor.map_sites(_boom, [1, 2, 3], chunk_size=1)
            assert executor.map_sites(_square, [2, 3]) == [4, 9]

    def test_process_executor_surfaces_typed_fault_error(self):
        # A fault-raised exception inside a worker process must come
        # back as the original typed error (which requires it to pickle
        # cleanly), not as a pool-layer wrapper.
        with ProcessExecutor(2) as executor:
            with pytest.raises(_InjectedFault, match="injected fault at 3"):
                executor.map_sites(
                    _fault_at_three, list(range(8)), chunk_size=2
                )

    def test_process_executor_usable_after_fault(self):
        with ProcessExecutor(2) as executor:
            with pytest.raises(_InjectedFault):
                executor.map_sites(
                    _fault_at_three, list(range(8)), chunk_size=1
                )
            assert executor.map_sites(_square, [4, 5]) == [16, 25]

    def test_process_executor_recovers_from_broken_pool(self):
        # A dying worker breaks the whole ProcessPoolExecutor; the
        # executor must discard the carcass so the next map starts a
        # fresh pool instead of failing forever.
        with ProcessExecutor(2) as executor:
            with pytest.raises(BrokenExecutor):
                executor.map_sites(_kill_worker, [0, 1, 2], chunk_size=1)
            assert executor.map_sites(_square, [3]) == [9]

    def test_late_chunk_failure_does_not_drain_queue(self):
        # The failing chunk sits *behind* a slow one: the map must
        # notice the failure as it happens (FIRST_EXCEPTION), cancel
        # the still-queued chunks and raise — not sequentially await
        # the slow chunk and let the queue churn meanwhile.
        executed = []
        lock = threading.Lock()

        def work(value: int) -> int:
            if value == 0:
                time.sleep(0.5)
                return value
            if value == 1:
                raise RuntimeError("boom 1")
            with lock:
                executed.append(value)
            return value

        with ThreadExecutor(2) as executor:
            with pytest.raises(RuntimeError, match="boom 1"):
                executor.map_sites(work, list(range(64)), chunk_size=1)
        # Worker 2 may race a couple of chunks past the failure before
        # the cancellations land, but nowhere near the full queue.
        assert len(executed) < 32

    def test_pool_reused_across_maps(self):
        with ThreadExecutor(2) as executor:
            executor.map_sites(_square, [1])
            pool = executor._pool
            executor.map_sites(_square, [2])
            assert executor._pool is pool

    def test_close_is_idempotent(self):
        executor = ThreadExecutor(2)
        executor.map_sites(_square, [1])
        executor.close()
        executor.close()


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)

    def test_thread_and_process_specs(self):
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)

    def test_worker_count_suffix(self):
        executor = make_executor("thread:6")
        assert executor.max_workers == 6

    def test_workers_argument(self):
        assert make_executor("process", 3).max_workers == 3

    def test_suffix_overrides_argument(self):
        assert make_executor("thread:5", 2).max_workers == 5

    def test_default_worker_count(self):
        assert make_executor("thread").max_workers == default_workers()

    @pytest.mark.parametrize("spec", ["bogus", "thread:x", "thread:0"])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            make_executor(spec)


class TestTaskWatchdog:
    """The no-progress watchdog armed by ``task_timeout``."""

    def test_stalled_map_times_out_and_pool_recovers(self):
        release = threading.Event()

        def stall(value: int) -> int:
            release.wait(timeout=10)
            return value

        executor = ThreadExecutor(2, task_timeout=0.15)
        try:
            with pytest.raises(TaskTimeoutError):
                executor.map_sites(stall, [1], chunk_size=1)
        finally:
            release.set()  # let the abandoned worker thread exit
        # The broken pool was discarded: the executor is immediately
        # usable again on a fresh one.
        assert executor.map_sites(_square, [2, 3]) == [4, 9]
        executor.close()

    def test_slow_but_moving_map_never_trips(self):
        # Progress-based, not per-chunk-deadline: chunks that each
        # outlast several windows are fine as long as *some* chunk
        # completes per window.
        def dawdle(value: int) -> int:
            time.sleep(0.06)
            return value

        with ThreadExecutor(1, task_timeout=0.5) as executor:
            assert executor.map_sites(
                dawdle, list(range(8)), chunk_size=1
            ) == list(range(8))

    def test_failure_beats_the_watchdog(self):
        # A chunk exception surfaces as itself, not as a timeout.
        with ThreadExecutor(2, task_timeout=5.0) as executor:
            with pytest.raises(RuntimeError, match="boom"):
                executor.map_sites(_boom, [1])

    def test_is_a_timeout_error(self):
        # Retry classification keys off TimeoutError ancestry: a
        # watchdog abort is transient infrastructure, never fatal.
        assert issubclass(TaskTimeoutError, TimeoutError)

    @pytest.mark.parametrize("bad", [0, -1.0])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ThreadExecutor(2, task_timeout=bad)

    def test_make_executor_passthrough(self):
        executor = make_executor("thread:2", task_timeout=1.5)
        assert executor.task_timeout == 1.5
        assert make_executor("thread:2").task_timeout is None
        # Serial runs ignore the watchdog entirely.
        assert isinstance(
            make_executor("serial", task_timeout=1.5), SerialExecutor
        )

    def test_default_is_disarmed(self):
        assert ThreadExecutor(2).task_timeout is None


class TestStream:
    """``Executor.stream``: batches land as they complete."""

    @pytest.mark.parametrize("factory", EXECUTOR_FACTORIES)
    def test_every_batch_lands_once_with_its_outcome(self, factory):
        with factory() as executor:
            landed = list(executor.stream([
                (_square, [1, 2, 3]), (_fault_at_three, [2, 3]),
                (_square, []), (_square, list(range(9))),
            ]))
        by_index = {batch.index: batch for batch in landed}
        assert sorted(by_index) == [0, 1, 2, 3]
        assert by_index[0].results == [1, 4, 9]
        assert isinstance(by_index[1].error, _InjectedFault)
        assert by_index[1].results is None
        assert by_index[2].results == []
        assert by_index[3].result() == [value * value for value in range(9)]
        with pytest.raises(_InjectedFault):
            by_index[1].result()

    def test_serial_batches_land_in_submission_order(self):
        landed = SerialExecutor().stream([(_square, [n]) for n in range(5)])
        assert [batch.index for batch in landed] == [0, 1, 2, 3, 4]

    def test_pool_batches_land_in_completion_order(self):
        def slow(value: int) -> int:
            time.sleep(0.3)
            return value

        with ThreadExecutor(2) as executor:
            landed = [batch.index for batch in executor.stream(
                [(slow, [0]), (_square, [1])]
            )]
        assert landed == [1, 0]

    def test_failed_batch_does_not_stop_the_others(self):
        # Only the failing batch's own chunks are cancelled.
        with ThreadExecutor(2) as executor:
            landed = {batch.index: batch for batch in executor.stream(
                [(_boom, [0]), *[(_square, [n]) for n in range(1, 20)]],
                chunk_size=1,
            )}
        assert isinstance(landed.pop(0).error, RuntimeError)
        assert {index: batch.results for index, batch in landed.items()} == {
            n: [n * n] for n in range(1, 20)
        }

    def test_closing_the_stream_cancels_outstanding_batches(self):
        executed = []
        lock = threading.Lock()

        def work(value: int) -> int:
            with lock:
                executed.append(value)
            time.sleep(0.01)
            return value

        with ThreadExecutor(1) as executor:
            stream = executor.stream([(work, [n]) for n in range(40)])
            first = next(stream)
            stream.close()
        assert first.results == [first.index]
        # The single worker may race a batch or two past the close,
        # but the queued batches are cancelled, never run.
        assert len(executed) < 10

    def test_broken_pool_fails_every_batch_in_flight(self):
        with ProcessExecutor(2) as executor:
            landed = {batch.index: batch for batch in executor.stream(
                [(_kill_worker, [0, 1, 2]), (_square, list(range(50)))],
                chunk_size=1,
            )}
            assert isinstance(landed[0].error, BrokenExecutor)
            # The other batch was lost with the pool, unless every one
            # of its chunks finished before the worker died.
            assert isinstance(landed[1].error, BrokenExecutor) or (
                landed[1].results == [n * n for n in range(50)]
            )
            # The dead pool was retired: the next stream gets a fresh one.
            assert executor.map_sites(_square, [3]) == [9]

    def test_watchdog_fires_on_a_wedged_stream(self):
        release = threading.Event()

        def stall(value: int) -> int:
            release.wait(timeout=10)
            return value

        executor = ThreadExecutor(2, task_timeout=0.2)
        try:
            landed = list(executor.stream(
                [(_square, [1, 2]), (stall, [0]), (stall, [1])],
                chunk_size=1,
            ))
        finally:
            release.set()
        by_index = {batch.index: batch for batch in landed}
        assert by_index[0].results == [1, 4]
        assert all(isinstance(by_index[index].error, TaskTimeoutError)
                   for index in (1, 2))
        assert executor.map_sites(_square, [2, 3]) == [4, 9]
        executor.close()
