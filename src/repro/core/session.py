"""Session records: the classifier's input abstraction.

The paper reconstructs "HTTP/2 session lifecycles" from two very
different sources — HTTP Archive HAR files (request-level, no precise
end times) and Chromium NetLogs (exact connection start/end events).
Both pipelines, plus the in-process browser itself, normalise to
:class:`SessionRecord`, so the §4.1 classifier is written once.

Because HAR files cannot tell when a connection ended, the paper
evaluates two lifetime models (§4.2.1): *endless* (connections never
close; upper bound) and *immediate* (closed right after the last
request; lower bound).  NetLog-based records can use their *actual*
recorded lifetimes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from operator import attrgetter

from repro.tls.verify import sans_cover

__all__ = ["LifetimeModel", "RequestSummary", "SessionRecord", "records_from_visit"]


class LifetimeModel(enum.Enum):
    """How long a session is assumed to stay reusable."""

    ENDLESS = "endless"
    IMMEDIATE = "immediate"
    ACTUAL = "actual"


def _field_tuple_state(cls):
    """Pickle a frozen slotted dataclass through its field-name tuple.

    ``dataclasses`` gives such a class a ``__getstate__`` and
    ``__setstate__`` that call ``fields()`` once per instance; every
    record of every cached artefact and pool result pays for it.  This
    pair looks the names up once per class.  The state is the same list
    of field values in field order, so the pickle bytes, and with them
    every cached artefact and ``CACHE_FORMAT``, do not change:

    >>> record = RequestSummary("a.com", 200, 1.5)
    >>> record.__getstate__() == [getattr(record, f.name) for f in fields(record)]
    True
    >>> import pickle
    >>> pickle.loads(pickle.dumps(record)) == record
    True

    ``__setstate__`` is generated code that sets each slot through its
    member descriptor (the class is frozen), one statement per field,
    the way ``dataclasses`` writes ``__init__``.
    """
    names = tuple(spec.name for spec in fields(cls))
    values = attrgetter(*names)

    def __getstate__(self):
        return list(values(self))

    namespace = {f"_set_{name}": getattr(cls, name).__set__ for name in names}
    exec(
        "def __setstate__(self, state):\n"
        f"    {', '.join(names)} = state\n"
        + "".join(f"    _set_{name}(self, {name})\n" for name in names),
        namespace,
    )
    cls.__getstate__ = __getstate__
    cls.__setstate__ = namespace["__setstate__"]
    return cls


@_field_tuple_state
@dataclass(frozen=True, slots=True)
class RequestSummary:
    """The per-request facts the classifier and perf models need."""

    domain: str
    status: int
    finished_at: float
    with_credentials: bool = False
    body_size: int = 0
    path: str = "/"
    method: str = "GET"


@_field_tuple_state
@dataclass(frozen=True, slots=True)
class SessionRecord:
    """One observed connection, source-agnostic."""

    connection_id: int
    domain: str  # the initially used domain (first request / SNI)
    ip: str
    port: int
    sans: tuple[str, ...]
    issuer: str
    start: float
    end: float | None  # None when unknown or still open at capture end
    protocol: str = "h2"
    privacy_mode: bool | None = None  # only NetLog sources know this
    requests: tuple[RequestSummary, ...] = field(default_factory=tuple)

    def covers(self, domain: str) -> bool:
        """Would this session's certificate cover ``domain``?"""
        return sans_cover(self.sans, domain)

    def last_request_at(self) -> float:
        if not self.requests:
            return self.start
        return max(request.finished_at for request in self.requests)

    def alive_at(self, timestamp: float, model: LifetimeModel) -> bool:
        """Is the session reusable at ``timestamp`` under ``model``?"""
        if timestamp < self.start:
            return False
        if model is LifetimeModel.ENDLESS:
            return True
        if model is LifetimeModel.IMMEDIATE:
            return timestamp <= self.last_request_at()
        if self.end is None:
            return True
        return timestamp < self.end

    def lifetime(self) -> float | None:
        """Recorded lifetime in seconds, if the end is known."""
        if self.end is None:
            return None
        return self.end - self.start


def records_from_visit(visit) -> list[SessionRecord]:
    """Build records straight from a browser :class:`Visit`.

    This is the ground-truth path (no logging losses); the HAR and
    NetLog pipelines should converge to the same records, which the
    integration tests assert.
    """
    records = []
    for connection in visit.connections:
        records.append(
            SessionRecord(
                connection_id=connection.connection_id,
                domain=connection.sni,
                ip=connection.remote_ip,
                port=connection.port,
                sans=connection.certificate.sans,
                issuer=connection.certificate.issuer_org,
                start=connection.created_at,
                end=connection.closed_at,
                protocol=connection.protocol,
                privacy_mode=connection.privacy_mode,
                requests=tuple(
                    RequestSummary(
                        domain=request.domain,
                        status=request.status,
                        finished_at=request.finished_at,
                        with_credentials=request.with_credentials,
                        body_size=request.body_size,
                        path=request.path,
                        method=request.method,
                    )
                    for request in connection.requests
                ),
            )
        )
    return records
