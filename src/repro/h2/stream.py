"""HTTP/2 stream state machine (RFC 7540 §5.1).

Only the client-initiated request/response lifecycle is modelled: the
request and the response are each one HEADERS frame with END_STREAM,
so a stream goes idle → half-closed (local) → closed, or closes on
RST_STREAM from any state.  Invalid transitions raise, so they are
caught early (they were the symptom of the 2016 Chromium bug that
Manzoor et al. traced parallel connections to).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.h2.errors import H2Error

__all__ = ["StreamState", "StreamError", "StreamResetError", "Http2Stream"]


class StreamError(H2Error):
    """Illegal operation for the stream's current state."""


class StreamResetError(StreamError):
    """The peer tore the stream down with RST_STREAM before completion.

    Raised by the connection's request path (fault injection, or any
    future server-push/flow-control model) so callers can distinguish a
    retryable per-stream failure from a dead connection.  Carries only
    its message and therefore pickles cleanly across pool workers.
    """


class StreamState(enum.Enum):
    IDLE = "idle"
    HALF_CLOSED_LOCAL = "half-closed (local)"
    CLOSED = "closed"


@dataclass(slots=True)
class Http2Stream:
    """One stream of a connection, from the client's perspective."""

    stream_id: int
    state: StreamState = StreamState.IDLE
    request_headers: list[tuple[str, str]] = field(default_factory=list)
    response_headers: list[tuple[str, str]] = field(default_factory=list)
    response_status: int | None = None
    opened_at: float | None = None
    closed_at: float | None = None

    def __post_init__(self) -> None:
        if self.stream_id <= 0 or self.stream_id % 2 == 0:
            raise StreamError(
                f"client streams must have odd positive ids, got {self.stream_id}"
            )

    def send_request(self, headers: list[tuple[str, str]], *, now: float) -> None:
        """HEADERS with END_STREAM out: idle → half-closed (local)."""
        if self.state is not StreamState.IDLE:
            raise StreamError(f"cannot send request in state {self.state.value}")
        self.request_headers = list(headers)
        self.opened_at = now
        self.state = StreamState.HALF_CLOSED_LOCAL

    def receive_response(
        self, status: int, headers: list[tuple[str, str]], *, now: float
    ) -> None:
        """HEADERS with END_STREAM in: half-closed (local) → closed."""
        if self.state is not StreamState.HALF_CLOSED_LOCAL:
            raise StreamError(f"cannot receive response in state {self.state.value}")
        self.response_status = status
        self.response_headers = list(headers)
        self._close(now)

    def reset(self, *, now: float) -> None:
        """RST_STREAM in either direction closes immediately."""
        if self.state is StreamState.CLOSED:
            return
        self._close(now)

    def _close(self, now: float) -> None:
        self.state = StreamState.CLOSED
        self.closed_at = now

    @property
    def is_closed(self) -> bool:
        return self.state is StreamState.CLOSED
