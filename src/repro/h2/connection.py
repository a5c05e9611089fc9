"""HTTP/2 client connection.

An :class:`Http2Connection` is the unit of observation of the whole
study: the paper counts connections, groups them by destination IP,
inspects their certificate SANs and their initially used domain, and
asks which of them were redundant.  The connection therefore records
exactly those observables, plus the stream/request log that the HAR and
NetLog pipelines serialise.  Header bytes are not among them: requests
carry their header list through the stream state machine but are never
HPACK-encoded here; ``repro.perf.estimator`` owns header-byte
accounting.

Server interaction goes through the small :class:`ServerEndpoint`
protocol implemented by ``repro.web.server.OriginServer`` — including
421 (Misdirected Request) responses when a coalesced request reaches a
server that cannot answer for the domain, and the optional RFC 8336
ORIGIN frame advertisement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Protocol

from repro.faults.plan import FaultKind
from repro.h2.errors import H2Error
from repro.h2.settings import Http2Settings
from repro.h2.stream import Http2Stream, StreamResetError
from repro.tls.certificate import Certificate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = [
    "ServerEndpoint",
    "RequestRecord",
    "ConnectionClosedError",
    "Http2Connection",
    "HTTP_MISDIRECTED_REQUEST",
]

HTTP_MISDIRECTED_REQUEST = 421

_DEFAULT_SETTINGS = Http2Settings()


class ConnectionClosedError(H2Error):
    """A request was attempted on a closed connection."""


class ServerEndpoint(Protocol):
    """What a connection needs from the server side."""

    ip: str
    certificate: Certificate

    def certificate_for(self, sni: str) -> Certificate:
        """The leaf certificate presented for a given SNI (vhosting)."""
        ...

    def handle_request(
        self, domain: str, path: str, *, method: str, credentials: bool
    ) -> tuple[int, list[tuple[str, str]], int]:
        """Serve one request; returns (status, headers, body size)."""
        ...

    def advertised_origins(self) -> tuple[str, ...]:
        """Origins the server announces via ORIGIN frames (RFC 8336)."""
        ...


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """One request as later visible in HAR / NetLog data."""

    url: str
    domain: str
    path: str
    method: str
    status: int
    started_at: float
    finished_at: float
    with_credentials: bool
    stream_id: int
    body_size: int


@dataclass
class Http2Connection:
    """One HTTP/2 session from browser to server."""

    connection_id: int
    server: ServerEndpoint
    sni: str
    remote_ip: str
    created_at: float
    port: int = 443
    privacy_mode: bool = False
    #: Negotiated ALPN protocol; non-"h2" sessions model the HTTP/1.1
    #: fallback connections that the HAR sanitizer later filters out.
    protocol: str = "h2"
    # Http2Settings is frozen, so one default instance is safely shared
    # by every connection instead of being rebuilt per handshake.
    remote_settings: Http2Settings = field(default=_DEFAULT_SETTINGS)
    closed_at: float | None = None
    goaway_received: bool = False
    streams: dict[int, Http2Stream] = field(default_factory=dict)
    requests: list[RequestRecord] = field(default_factory=list)
    origin_set: set[str] = field(default_factory=set)
    misdirected_domains: set[str] = field(default_factory=set)
    #: Optional :class:`~repro.faults.plan.FaultPlan` consulted per
    #: request; ``None`` keeps the request path exactly as before.
    faults: "FaultPlan | None" = None
    _next_stream_id: int = 1

    def __post_init__(self) -> None:
        # Real servers choose the presented certificate by SNI; this is
        # what makes same-IP sharding with disjunct certificates (the
        # paper's CERT cause) possible in the first place.
        self.certificate = self.server.certificate_for(self.sni)
        if self.remote_ip != self.server.ip:
            raise ValueError(
                f"connection IP {self.remote_ip} does not match server {self.server.ip}"
            )
        self._open_streams = 0
        # RFC 8336: the server may advertise additional origins at
        # session start; whether the client *uses* them is browser policy.
        self.origin_set.update(self.server.advertised_origins())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self.closed_at is None and not self.goaway_received

    @property
    def accepts_new_streams(self) -> bool:
        """False once the peer advertised MAX_CONCURRENT_STREAMS=0.

        A quiesced session (RFC 7540 §6.5.2: zero means "no new
        streams") is still open but useless to the pool; treating it as
        unavailable lets the browser alias a replacement instead of
        burning one doomed attempt per request.
        """
        return self.remote_settings.max_concurrent_streams != 0

    def close(self, *, now: float) -> None:
        """Client-side close (or idle timeout)."""
        if self.closed_at is None:
            self.closed_at = now
            for stream in self.streams.values():
                if not stream.is_closed:
                    stream.reset(now=now)
            self._open_streams = 0

    def receive_goaway(self, *, now: float) -> None:
        """Server GOAWAY: no new streams; existing ones finish."""
        self.goaway_received = True
        if self.closed_at is None:
            self.closed_at = now

    def apply_remote_settings(self, settings: Http2Settings) -> None:
        """A SETTINGS frame from the peer replaces its parameters.

        Only the stream-admission limits take effect here.  The header
        table size stays pinned to the value negotiated at session start:
        a resize only means something to an HPACK codec (a table-size
        update on the next header block), and connections keep no HPACK
        state, so a mid-session SETTINGS frame never changes it.
        """
        self.remote_settings = replace(
            settings,
            header_table_size=self.remote_settings.header_table_size,
        )

    def lifetime(self, *, assume_end: float | None = None) -> float | None:
        """Seconds the connection lived; ``assume_end`` caps open ones."""
        end = self.closed_at if self.closed_at is not None else assume_end
        if end is None:
            return None
        return max(0.0, end - self.created_at)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def open_stream_count(self) -> int:
        # Tracked incrementally by perform_request/close; recomputing
        # with a scan here would make every request O(total streams).
        return self._open_streams

    def perform_request(
        self,
        domain: str,
        path: str,
        *,
        now: float,
        method: str = "GET",
        with_credentials: bool = False,
        service_time: float = 0.0,
    ) -> RequestRecord:
        """Multiplex one request over this connection.

        Raises :class:`ConnectionClosedError` when the session can no
        longer accept streams; enforces MAX_CONCURRENT_STREAMS.  With an
        attached fault plan the request may additionally be struck by an
        injected GOAWAY (session closes), a SETTINGS churn (the peer
        drops MAX_CONCURRENT_STREAMS, quiescing the session without
        closing it) or an RST_STREAM
        (:class:`~repro.h2.stream.StreamResetError` after the stream
        opened — the retryable case).
        """
        faults = self.faults
        if faults is not None and self.is_open:
            if faults.fires(FaultKind.H2_GOAWAY):
                # Mid-stream GOAWAY: the server stops this session right
                # as the request is about to be multiplexed onto it.
                self.receive_goaway(now=now)
            elif faults.fires(FaultKind.H2_SETTINGS_CHURN):
                self.apply_remote_settings(
                    replace(
                        self.remote_settings,
                        max_concurrent_streams=int(
                            faults.param(FaultKind.H2_SETTINGS_CHURN, 0.0)
                        ),
                    )
                )
        if not self.is_open:
            raise ConnectionClosedError(f"connection {self.connection_id} is closed")
        limit = self.remote_settings.max_concurrent_streams
        if limit is not None and self.open_stream_count() >= limit:
            raise ConnectionClosedError(
                f"connection {self.connection_id} is at MAX_CONCURRENT_STREAMS"
            )
        stream = Http2Stream(stream_id=self._next_stream_id)
        self._next_stream_id += 2
        self.streams[stream.stream_id] = stream
        self._open_streams += 1

        headers = [
            (":method", method),
            (":scheme", "https"),
            (":authority", domain),
            (":path", path),
        ]
        if with_credentials:
            headers.append(("cookie", f"session={domain}"))
        stream.send_request(headers, now=now)

        if faults is not None and faults.fires(FaultKind.H2_RST_STREAM):
            # RST_STREAM after HEADERS went out: the stream dies, the
            # session survives.  No RequestRecord is produced — exactly
            # like a NetLog that never sees the response events.
            stream.reset(now=now)
            self._open_streams -= 1
            raise StreamResetError(
                f"stream {stream.stream_id} on connection "
                f"{self.connection_id} reset by peer"
            )

        status, response_headers, body_size = self.server.handle_request(
            domain, path, method=method, credentials=with_credentials
        )
        finished = now + service_time
        stream.receive_response(status, response_headers, now=finished)
        self._open_streams -= 1

        if status == HTTP_MISDIRECTED_REQUEST:
            # The server refuses to answer for this origin on this
            # connection; remember so the browser will not coalesce again.
            self.misdirected_domains.add(domain)

        record = RequestRecord(
            url=f"https://{domain}{path}",
            domain=domain,
            path=path,
            method=method,
            status=status,
            started_at=now,
            finished_at=finished,
            with_credentials=with_credentials,
            stream_id=stream.stream_id,
            body_size=body_size,
        )
        self.requests.append(record)
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Http2Connection(id={self.connection_id}, sni={self.sni!r}, "
            f"ip={self.remote_ip}, privacy_mode={self.privacy_mode}, "
            f"requests={len(self.requests)})"
        )
