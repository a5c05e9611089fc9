"""Failure classification and the chunk-then-single retry loop.

The policy splits failures along the line the PR-7 typed-error
hierarchies drew: **transient** errors are simulated (or real)
infrastructure outcomes — ``DnsError``, ``H2Error``,
``CertificateError``, ``OSError``, timeouts, a worker-killed
``BrokenExecutor`` — that a retry can plausibly outlive; **fatal**
errors are programming bugs (``TypeError``, ``KeyError``,
``AssertionError``, ...) that would fail identically forever, so
retrying them only buries the traceback.

:func:`recover_chunk` is the shard recovery primitive: after a
whole-chunk attempt through the executor failed for a transient
reason, it re-dispatches every item as its own single-item map so one
poisoned site cannot hold the rest of its chunk hostage.  Its one
caller is :meth:`repro.runlog.RunContext.settle_shard`, which hands it
the failed attempt as the executor's stream landed it.  When an item
exhausts its attempt budget, the recovery raises
:class:`PoisonShardError`; the run context catches that and
quarantines the shard instead of aborting the study.

Retries do not wait: simulated infrastructure does not get less broken
by waiting, and the test suite must not either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence, TypeVar

from repro.runlog.errors import PoisonShardError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.executor import Landed

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["classify_failure", "recover_chunk"]

#: Exception types that mean "the code is wrong, not the weather":
#: retrying them reproduces the same failure with interest.
_FATAL_TYPES: tuple[type[BaseException], ...] = (
    TypeError, AttributeError, NameError, LookupError, ValueError,
    AssertionError, ImportError, RecursionError, NotImplementedError,
    ZeroDivisionError, SyntaxError,
)


def classify_failure(error: BaseException) -> str:
    """``"fatal"`` for programming errors, ``"transient"`` otherwise.

    ``OSError`` (and everything else, including the subsystem
    hierarchies and :class:`BrokenExecutor`) counts as transient: the
    run layer's bias is to retry anything that *could* be the
    environment, and let the attempt budget bound the damage when it
    is not.
    """
    if isinstance(error, _FATAL_TYPES) and not isinstance(error, OSError):
        return "fatal"
    return "transient"


def recover_chunk(
    executor,
    fn: Callable[[T], R],
    items: Sequence[T],
    failed: "Landed",
    *,
    max_attempts: int,
    stage: str,
    domains: tuple[str, ...],
    on_event: Callable[[str, dict], None],
    reattempt: Callable[[T, int], T] | None = None,
) -> list[R]:
    """The results of ``items`` after their whole-chunk attempt failed.

    ``failed`` is that attempt, landed with its error.
    ``max_attempts`` counts every try of an item, the whole-chunk one
    included.  ``reattempt(item, n)`` rewrites an item for retry
    attempt ``n`` (the crawl tasks bump their ``attempt`` counter so
    the injected ``worker-crash`` fault can be attempt-bounded);
    ``on_event`` sees every failure as ``(kind, detail)`` for journal
    recording, the chunk's own as ``chunk-failed``.

    Raises the chunk's own error when it classifies fatal (or when
    ``max_attempts`` is 1 — strict mode), and
    :class:`PoisonShardError` when an item survives every attempt.
    """
    error = failed.error
    verdict = classify_failure(error)
    on_event("chunk-failed", {
        "stage": stage, "error": type(error).__name__,
        "message": str(error), "classification": verdict,
    })
    if verdict == "fatal" or max_attempts <= 1:
        return failed.result()  # raises: the attempt failed

    # The chunk failed for a transient reason: re-dispatch every item
    # singly.  Items whose work is deterministic and healthy reproduce
    # their chunk-attempt results exactly (nothing in a task's output
    # depends on the attempt number); the failing ones get the rest of
    # the attempt budget one at a time.
    results: list[R] = []
    for position, item in enumerate(items):
        last_error: BaseException | None = None
        recovered = False
        for attempt in range(1, max_attempts):
            retry_item = (
                reattempt(item, attempt) if reattempt is not None else item
            )
            try:
                results.extend(executor.map_sites(fn, [retry_item]))
                recovered = True
                break
            except Exception as retry_error:
                verdict = classify_failure(retry_error)
                on_event("item-failed", {
                    "stage": stage, "item": position, "attempt": attempt,
                    "error": type(retry_error).__name__,
                    "message": str(retry_error), "classification": verdict,
                })
                if verdict == "fatal":
                    raise
                last_error = retry_error
        if not recovered:
            raise PoisonShardError(stage, domains, max_attempts) from last_error
    return results
