"""HTTP/2 substrate: HPACK, streams, connections, settings."""

from repro.h2.connection import (
    HTTP_MISDIRECTED_REQUEST,
    ConnectionClosedError,
    Http2Connection,
    RequestRecord,
    ServerEndpoint,
)
from repro.h2.errors import H2Error
from repro.h2.hpack import STATIC_TABLE, HpackDecoder, HpackEncoder, HpackError
from repro.h2.settings import Http2Settings
from repro.h2.stream import Http2Stream, StreamError, StreamResetError, StreamState

__all__ = [
    "H2Error",
    "HTTP_MISDIRECTED_REQUEST",
    "ConnectionClosedError",
    "Http2Connection",
    "RequestRecord",
    "ServerEndpoint",
    "STATIC_TABLE",
    "HpackDecoder",
    "HpackEncoder",
    "HpackError",
    "Http2Settings",
    "Http2Stream",
    "StreamError",
    "StreamResetError",
    "StreamState",
]
