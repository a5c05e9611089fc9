"""Failure classification and the chunk-then-single retry loop."""

from __future__ import annotations

import os
import signal
from concurrent.futures import BrokenExecutor
from contextlib import closing
from dataclasses import dataclass, replace

import pytest

from repro.dns.errors import DnsError
from repro.h2.errors import H2Error
from repro.runlog import PoisonShardError, WorkerCrashError, classify_failure
from repro.runlog.retry import recover_chunk
from repro.runtime import ProcessExecutor, SerialExecutor
from repro.tls.verify import CertificateError


class TestClassification:
    @pytest.mark.parametrize("error", [
        TypeError("t"), AttributeError("a"), NameError("n"),
        KeyError("k"), IndexError("i"), ValueError("v"),
        AssertionError("a"), ImportError("i"), RecursionError("r"),
        NotImplementedError("n"), ZeroDivisionError("z"),
    ])
    def test_programming_errors_are_fatal(self, error):
        assert classify_failure(error) == "fatal"

    @pytest.mark.parametrize("error", [
        DnsError("servfail"), H2Error("goaway"),
        CertificateError("expired"), OSError("io"),
        ConnectionResetError("reset"), TimeoutError("slow"),
        BrokenExecutor("worker died"), WorkerCrashError("injected"),
        RuntimeError("anything else"),
    ])
    def test_infrastructure_errors_are_transient(self, error):
        assert classify_failure(error) == "transient"

    def test_oserror_wins_over_lookup_ancestry(self):
        # FileNotFoundError is an OSError; the explicit OSError guard
        # must keep it transient even though OSError subclasses appear
        # nowhere in the fatal tuple themselves.
        assert classify_failure(FileNotFoundError("gone")) == "transient"


@dataclass(frozen=True)
class _Task:
    name: str
    fail_until: int = 0  # attempts [0, fail_until) raise
    attempt: int = 0
    fatal: bool = False


def _work(task: _Task) -> str:
    if task.fatal:
        raise TypeError(f"bug visiting {task.name}")
    if task.attempt < task.fail_until:
        raise DnsError(f"servfail for {task.name} "
                       f"(attempt {task.attempt})")
    return task.name.upper()


def _reattempt(task: _Task, attempt: int) -> _Task:
    return replace(task, attempt=attempt)


def _retry(executor, fn, tasks, *, max_attempts, stage, domains=(),
           reattempt=None, on_event=None):
    """The whole-chunk attempt through ``executor.stream``, then
    :func:`recover_chunk` over the batch it landed (which must fail)."""
    with closing(executor.stream([(fn, tasks)])) as stream:
        (landed,) = stream
    assert landed.error is not None
    return recover_chunk(
        executor, fn, tasks, landed, max_attempts=max_attempts,
        stage=stage, domains=domains, reattempt=reattempt,
        on_event=on_event or (lambda kind, detail: None),
    )


class TestRetryMap:
    """A failed chunk's recovery, fed the batch its stream attempt landed."""

    def test_happy_path_preserves_order(self):
        # Only the chunk attempt fails; every item's re-dispatch
        # succeeds and the results keep input order.
        tasks = [_Task("a", fail_until=1), _Task("b"), _Task("c")]
        results = _retry(
            SerialExecutor(), _work, tasks,
            max_attempts=3, stage="s", reattempt=_reattempt,
        )
        assert results == ["A", "B", "C"]

    def test_transient_failure_recovers_on_single_redispatch(self):
        events = []
        # b fails its chunk attempt (0) and its first re-dispatch (1),
        # then succeeds with one attempt to spare.
        tasks = [_Task("a"), _Task("b", fail_until=2), _Task("c")]
        results = _retry(
            SerialExecutor(), _work, tasks,
            max_attempts=3, stage="s",
            reattempt=_reattempt,
            on_event=lambda kind, detail: events.append((kind, detail)),
        )
        assert results == ["A", "B", "C"]
        kinds = [kind for kind, _ in events]
        assert kinds == ["chunk-failed", "item-failed"]
        assert events[0][1]["classification"] == "transient"
        assert events[1][1]["attempt"] == 1

    def test_poison_after_exhausted_attempts(self):
        tasks = [_Task("a"), _Task("b", fail_until=99)]
        with pytest.raises(PoisonShardError) as info:
            _retry(
                SerialExecutor(), _work, tasks,
                max_attempts=3, stage="alexa-fetch",
                domains=("a.com", "b.com"), reattempt=_reattempt,
            )
        assert info.value.stage == "alexa-fetch"
        assert info.value.domains == ("a.com", "b.com")
        assert info.value.attempts == 3
        assert isinstance(info.value.__cause__, DnsError)

    def test_fatal_chunk_failure_raises_immediately(self):
        events = []
        with pytest.raises(TypeError):
            _retry(
                SerialExecutor(), _work, [_Task("a", fatal=True)],
                max_attempts=5, stage="s",
                reattempt=_reattempt,
                on_event=lambda kind, detail: events.append(kind),
            )
        assert events == ["chunk-failed"]  # no per-item attempts burned

    def test_fatal_during_redispatch_raises_immediately(self):
        calls = []

        def flaky_then_buggy(task: _Task) -> str:
            calls.append(task.attempt)
            if task.attempt == 0:
                raise DnsError("transient first")
            raise TypeError("bug on retry")

        with pytest.raises(TypeError):
            _retry(
                SerialExecutor(), flaky_then_buggy, [_Task("a")],
                max_attempts=4, stage="s",
                reattempt=_reattempt,
            )
        assert calls == [0, 1]

    def test_single_attempt_policy_reraises_the_original(self):
        # Strict mode: no PoisonShardError wrapper, the real error
        # surfaces with its own type and message.
        with pytest.raises(DnsError):
            _retry(
                SerialExecutor(), _work, [_Task("a", fail_until=9)],
                max_attempts=1, stage="s",
                reattempt=_reattempt,
            )


# --- dead-worker re-dispatch -------------------------------------------------

def _suicidal(task: _Task) -> str:
    """Kill -9 the hosting worker on early attempts (picklable)."""
    if task.name == "bomb" and task.attempt < task.fail_until:
        os.kill(os.getpid(), signal.SIGKILL)
    return task.name.upper()


@pytest.mark.slow
class TestDeadWorkerRedispatch:
    def test_sigkilled_worker_recovers_via_single_redispatch(self):
        """A worker dying mid-chunk (BrokenExecutor) classifies as
        transient; the re-dispatch runs each item singly against a
        fresh pool and the map completes with full results."""
        tasks = [_Task("a"), _Task("bomb", fail_until=1), _Task("c"),
                 _Task("d")]
        events = []
        with ProcessExecutor(max_workers=2) as executor:
            results = _retry(
                executor, _suicidal, tasks,
                max_attempts=3, stage="s",
                reattempt=_reattempt,
                on_event=lambda kind, detail: events.append((kind, detail)),
            )
            # The executor is healthy again after the broken pool was
            # discarded: a follow-up plain map works.
            assert executor.map_sites(
                _suicidal, [_Task("e")]
            ) == ["E"]
        assert results == ["A", "BOMB", "C", "D"]
        chunk_failures = [d for k, d in events if k == "chunk-failed"]
        assert chunk_failures and chunk_failures[0]["classification"] == (
            "transient"
        )

    def test_forever_killing_worker_poisons(self):
        tasks = [_Task("a"), _Task("bomb", fail_until=99)]
        with ProcessExecutor(max_workers=2) as executor:
            with pytest.raises(PoisonShardError):
                _retry(
                    executor, _suicidal, tasks,
                    max_attempts=2, stage="s",
                    reattempt=_reattempt,
                )
