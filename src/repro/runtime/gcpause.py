"""Pause CPython's cyclic garbage collector over acyclic pipeline work.

Everything a study builds — worlds, crawls, per-connection records,
classified datasets, summaries, digests — is acyclic, so reference
counting frees all of it the moment it is dropped.  The cyclic
collector still walks that heap on its allocation-count schedule and
finds nothing: it was measured at about 16% of a cold serial 300-site
study and over a quarter of a warm served study, for zero objects
collected.  ``tests/runtime/test_gcpause.py::TestPipelineIsAcyclic``
runs studies and served requests under ``gc.DEBUG_SAVEALL`` and fails
if any ``repro`` object ever ends up in a collected cycle, which is
what makes pausing the collector safe.

:func:`collector_paused` turns automatic collection off while any
caller is inside it, as a ``with`` block or as a decorator.  It is
re-entrant and thread-safe: a lock-guarded depth counter makes the
outermost entry record :func:`gc.isenabled` and disable the collector,
and the outermost exit re-enable it only if it was enabled before —
also when the body raises.  A forked child (a process-pool worker
started mid-study) gets a fresh counter and its collector back.

A child forked inside a pause first calls :func:`gc.freeze` on the heap
it inherited, so the worker's own collections scan only what the
worker allocates instead of rescanning the parent's world each full
pass.  Freezing that heap is safe: it is the parent's acyclic pipeline
state, which the worker only reads, and any cycle in it is the
parent's garbage, which the parent's collector still frees; the
worker's copy ends with the worker.  Cycles the worker makes itself
are still collected.  The pause is not a freeze in the parent, where
frozen cycles would never be collected for the life of the process,
nor :func:`gc.set_threshold` (a global tuning knob that still
rescans).  Explicit :func:`gc.collect` calls still run.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]


class _PauseState:
    """The process's pause depth and the collector state it saved."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.depth = 0
        self.was_enabled = False


_state = _PauseState()


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep automatic cyclic collection off for the duration."""
    state = _state
    with state.lock:
        if state.depth == 0:
            state.was_enabled = gc.isenabled()
            gc.disable()
        state.depth += 1
    try:
        yield
    finally:
        # A pause inherited across fork() was already undone in the
        # child; unwinding it there must not touch the child's own.
        if state is _state:
            with state.lock:
                state.depth -= 1
                if state.depth == 0 and state.was_enabled:
                    gc.enable()


def _reset_in_child() -> None:
    global _state
    inherited, _state = _state, _PauseState()
    if inherited.depth:
        gc.freeze()
        if inherited.was_enabled:
            gc.enable()


os.register_at_fork(after_in_child=_reset_in_child)
