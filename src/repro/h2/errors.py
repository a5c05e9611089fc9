"""The HTTP/2 subsystem's typed error root.

Every exception the HPACK/stream/connection layer raises derives from
:class:`H2Error`, so the browser's retry paths can catch the whole
subsystem with one clause and the ``repro lint`` typed-error rule can
verify no raise site escapes the hierarchy.  ``HpackError`` historically
derived from :class:`ValueError` and keeps that base too, so existing
``except ValueError`` callers are unaffected.
"""

from __future__ import annotations

__all__ = ["H2Error"]


class H2Error(RuntimeError):
    """Root of the HTTP/2 subsystem's typed error hierarchy.

    Subclasses carry only their message, so they survive pickling
    across process-pool workers intact.
    """
