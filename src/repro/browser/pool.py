"""The Chromium-like HTTP/2 session pool.

This is the decision procedure whose outcomes the paper measures.  It
mirrors Chromium's ``SpdySessionPool``:

* Sessions are keyed by ``(host, port, privacy_mode)`` — the privacy
  mode component is the Fetch Standard partition (internally
  ``privacy_mode`` in Chromium [12]); the paper's patched run removes it
  (``ignore_privacy_mode``).
* On a key miss, **IP pooling** (connection coalescing, RFC 7540
  §9.1.1) scans live sessions in the same partition: a session may be
  reused when its peer IP is among the new host's resolved addresses
  *and* its certificate covers the host — unless the host previously
  received a 421 on that session.
* Optionally (off by default, like Chromium [17]) the RFC 8336 ORIGIN
  frame's origin set also qualifies a session for reuse without an IP
  match — the mitigation ablation of §5.3.1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.h2.connection import Http2Connection
from repro.netlog.events import NetLog, NetLogEventType
from repro.tls.issuers import WELL_KNOWN_ISSUERS
from repro.tls.verify import verify_certificate
from repro.web.server import OriginServer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["SessionKey", "PoolDecision", "ConnectionPool"]

#: The client trust store: every organisation the synthetic issuers
#: mint under.  Fault-degraded certificates re-issue outside this set.
_TRUSTED_ISSUERS = frozenset(WELL_KNOWN_ISSUERS)


@dataclass(frozen=True, slots=True)
class SessionKey:
    """Chromium SpdySessionKey subset: host, port, privacy partition."""

    host: str
    port: int
    privacy_mode: bool


@dataclass(frozen=True, slots=True)
class PoolDecision:
    """How a request obtained its connection (for tests/diagnostics)."""

    connection: Http2Connection
    created: bool
    coalesced: bool
    via_origin_frame: bool = False
    #: The connection is an alt-svc-driven h3 upgrade of a host whose
    #: first contact negotiated h2 (only with ``h3_discovery``).
    h3_upgraded: bool = False


@dataclass
class ConnectionPool:
    """Per-visit pool of HTTP/2 sessions (plus HTTP/1.1 fallbacks)."""

    server_lookup: Callable[[str], OriginServer]
    rng: random.Random
    netlog: NetLog | None = None
    ignore_privacy_mode: bool = False
    honor_origin_frame: bool = False
    #: Alt-svc *discovery* dynamics (the ``h3_profile`` axis, see
    #: :mod:`repro.h3`): the first contact with an advertising endpoint
    #: negotiates the server's ALPN protocol and remembers the alt-svc
    #: offer; subsequent connections for remembered hosts upgrade to h3
    #: — preferring an existing coalescable h3 session over a new one.
    #: This reproduces exactly the h2/h3 switching the paper disabled
    #: QUIC to avoid (§4.2.2); without it every session is h2 (or
    #: HTTP/1.1), as in the paper's crawls.
    h3_discovery: bool = False
    #: Optional fault plan: forwarded to every created connection, and
    #: (for profiles with TLS faults) turns on handshake certificate
    #: verification in :meth:`_create`.
    faults: "FaultPlan | None" = None
    port: int = 443
    sessions: list[Http2Connection] = field(default_factory=list)
    # thread-safe: one ConnectionPool per visit (built in Browser.visit),
    # and a visit runs entirely on one executor task.
    _aliases: dict[SessionKey, Http2Connection] = field(default_factory=dict)
    # thread-safe: per-visit, like _aliases above.
    _interned_keys: dict[tuple[str, bool], SessionKey] = field(
        default_factory=dict, repr=False
    )
    _next_connection_id: int = 1
    coalesced_count: int = 0
    created_count: int = 0
    # thread-safe: per-visit, like _aliases above.  Hosts whose served
    # endpoint advertised alt-svc h3 on an earlier contact this visit.
    _alt_svc_hosts: set[str] = field(default_factory=set, repr=False)
    #: Connections obtained as h3 upgrades of previously-h2 hosts.
    h3_upgraded_count: int = 0

    def _key(self, host: str, privacy_mode: bool) -> SessionKey:
        if self.ignore_privacy_mode:
            privacy_mode = False
        # Interned: the same (host, partition) recurs for every request
        # of a visit; reusing the key object skips an allocation per
        # request.
        key = self._interned_keys.get((host, privacy_mode))
        if key is None:
            key = SessionKey(host=host, port=self.port, privacy_mode=privacy_mode)
            self._interned_keys[(host, privacy_mode)] = key
        return key

    def _partition_matches(self, session: Http2Connection, privacy_mode: bool) -> bool:
        if self.ignore_privacy_mode:
            return True
        return session.privacy_mode == privacy_mode

    # ------------------------------------------------------------------
    def get_connection(
        self,
        host: str,
        ips: tuple[str, ...],
        *,
        privacy_mode: bool,
        now: float,
        force_new: bool = False,
        protocol_hint: str = "h2",
    ) -> PoolDecision:
        """Find or create the session a request for ``host`` uses.

        ``ips`` is the DNS answer for ``host`` at request time;
        ``force_new`` skips all reuse (the 421 retry path).
        """
        key = self._key(host, privacy_mode)
        # Discovery: a host learned to advertise h3 upgrades its next
        # connection — an open h2 alias is deliberately skipped (the
        # mid-visit h2→h3 switch the paper's methodology avoided).
        wants_h3 = self.h3_discovery and host in self._alt_svc_hosts

        if not force_new:
            session = self._aliases.get(key)
            if (
                session is not None
                and session.is_open
                and session.accepts_new_streams
                and not (wants_h3 and session.protocol != "h3")
            ):
                self._learn_alt_svc(host, session)
                return PoolDecision(connection=session, created=False, coalesced=False)

            if protocol_hint == "h2" or wants_h3:
                target_protocol = "h3" if wants_h3 else "h2"
                coalesced = self._find_coalescable(
                    key, host, ips, protocol=target_protocol
                )
                if coalesced is not None:
                    session, via_origin = coalesced
                    self._aliases[key] = session
                    self.coalesced_count += 1
                    self._learn_alt_svc(host, session)
                    if wants_h3:
                        self.h3_upgraded_count += 1
                    if self.netlog is not None:
                        self.netlog.emit(
                            NetLogEventType.HTTP2_SESSION_POOL_FOUND_EXISTING_SESSION,
                            time=now,
                            source_id=session.connection_id,
                            host=host,
                            via_origin_frame=via_origin,
                        )
                    return PoolDecision(
                        connection=session,
                        created=False,
                        coalesced=True,
                        via_origin_frame=via_origin,
                        h3_upgraded=wants_h3,
                    )

        session = self._create(host, ips, privacy_mode=privacy_mode, now=now)
        if not force_new:
            self._aliases[key] = session
        self._learn_alt_svc(host, session)
        upgraded = wants_h3 and session.protocol == "h3"
        if upgraded:
            self.h3_upgraded_count += 1
        return PoolDecision(
            connection=session, created=True, coalesced=False,
            h3_upgraded=upgraded,
        )

    def _learn_alt_svc(self, host: str, session: Http2Connection) -> None:
        """Remember an alt-svc h3 offer observed on ``host``'s endpoint.

        Only consulted under ``h3_discovery``; the learned set is what
        turns a *later* connection for the host into an h3 upgrade —
        the first contact itself always keeps the negotiated protocol.
        """
        if self.h3_discovery and getattr(session.server, "alt_svc_h3", False):
            self._alt_svc_hosts.add(host)

    def _find_coalescable(
        self,
        key: SessionKey,
        host: str,
        ips: tuple[str, ...],
        *,
        protocol: str = "h2",
    ) -> tuple[Http2Connection, bool] | None:
        ip_set = set(ips)
        # The ORIGIN frame is an HTTP/2 extension (RFC 8336); h3
        # coalescing qualifies on IP + certificate coverage only.
        origin = (
            f"https://{host}"
            if self.honor_origin_frame and protocol == "h2" else None
        )
        for session in self.sessions:
            if not session.is_open or not session.accepts_new_streams:
                continue
            if session.protocol != protocol:
                continue
            if not self._partition_matches(session, key.privacy_mode):
                continue
            if session.port != key.port:
                continue
            if host in session.misdirected_domains:
                continue
            # Both reuse paths additionally require certificate
            # coverage, so the (memoized but still costlier) SAN match
            # runs only for sessions that qualify on IP or origin set.
            ip_match = session.remote_ip in ip_set
            via_origin = (
                not ip_match
                and origin is not None
                and origin in session.origin_set
            )
            if not ip_match and not via_origin:
                continue
            if not session.certificate.covers(host):
                continue
            return session, via_origin
        return None

    def _create(
        self,
        host: str,
        ips: tuple[str, ...],
        *,
        privacy_mode: bool,
        now: float,
    ) -> Http2Connection:
        if not ips:
            raise ValueError(f"cannot connect to {host}: empty address list")
        # Chromium may end up on any announced address (happy eyeballs,
        # per-attempt ordering); picking among answers reproduces the
        # paper's corner case of same-domain connections on different
        # IPs (§4.1).
        ip = self.rng.choice(ips)
        server = self.server_lookup(ip)
        if self.faults is not None and self.faults.verifies_tls:
            # Handshake-time verification, before any session state is
            # created: a degraded certificate (see FaultedEndpoint)
            # aborts the connection with a typed CertificateError that
            # the loader's fallback logic handles.  The endpoint caches
            # its per-SNI decision, so the certificate verified here is
            # the one the established session will record.
            verify_certificate(
                server.certificate_for(host), host, now=now,
                trusted_issuers=_TRUSTED_ISSUERS,
            )
        protocol = server.alpn
        # Discovery dynamics: only hosts with a *previously seen* alt-svc
        # offer upgrade, and only when the endpoint the dice landed on
        # still advertises (load-balanced pools may mix adopters and
        # laggards).
        if (
            self.h3_discovery
            and host in self._alt_svc_hosts
            and getattr(server, "alt_svc_h3", False)
        ):
            protocol = "h3"
        session = Http2Connection(
            connection_id=self._next_connection_id,
            server=server,
            sni=host,
            remote_ip=ip,
            created_at=now,
            port=self.port,
            privacy_mode=False if self.ignore_privacy_mode else privacy_mode,
            protocol=protocol,
            faults=self.faults,
        )
        self._next_connection_id += 1
        self.sessions.append(session)
        self.created_count += 1
        if self.netlog is not None:
            self.netlog.emit(
                NetLogEventType.HTTP2_SESSION,
                time=now,
                source_id=session.connection_id,
                host=host,
                peer_address=ip,
                privacy_mode=session.privacy_mode,
                protocol=session.protocol,
                cert_sans=list(session.certificate.sans),
                cert_issuer=session.certificate.issuer_org,
            )
        return session

    # ------------------------------------------------------------------
    def close_all(self, *, now: float, reason: str = "shutdown") -> None:
        """Close every live session (end of the observation window)."""
        for session in self.sessions:
            if session.is_open:
                session.close(now=now)
                if self.netlog is not None:
                    self.netlog.emit(
                        NetLogEventType.HTTP2_SESSION_CLOSE,
                        time=now,
                        source_id=session.connection_id,
                        reason=reason,
                    )
