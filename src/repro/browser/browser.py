"""The browser facade: a Chromium-87-like headless visitor.

One :class:`ChromiumBrowser` models the paper's measurement browser:
QUIC disabled, field trials disabled (everything deterministic from the
seed), a fresh pool and loader per visit, NetLog recording on.  The
``ignore_privacy_mode`` option is the paper's Chromium patch for the
"Alexa w/o Fetch" run (§5.3.3); ``honor_origin_frame`` is the RFC 8336
ablation Chromium itself does not implement [17].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.browser.loader import PageLoader, PageLoadResult
from repro.browser.pool import ConnectionPool
from repro.dns.resolver import RecursiveResolver
from repro.h2.connection import ConnectionClosedError, Http2Connection
from repro.h2.stream import StreamResetError
from repro.netlog.events import NetLog, NetLogEventType
from repro.util.clock import SimClock
from repro.web.ecosystem import Ecosystem
from repro.web.server import FaultedEndpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["BrowserConfig", "Visit", "ChromiumBrowser"]


@dataclass(frozen=True)
class BrowserConfig:
    """Launch flags of the measurement browser."""

    vantage_country: str = "DE"
    ignore_privacy_mode: bool = False
    honor_origin_frame: bool = False
    #: Seconds the browser stays on the page after load (the paper's
    #: sessions were observed for minutes; most connections outlive the
    #: page load and a few are closed by server GOAWAYs).
    observe_s: float = 300.0
    #: Share of sessions the server closes early with a GOAWAY.
    early_close_share: float = 0.035
    #: Median of the lognormal early-close lifetime (the paper measured
    #: a median lifetime of 122.2 s for connections that closed).
    early_close_median_s: float = 122.2
    early_close_sigma: float = 0.45
    #: Probability a session sees late activity (lazy loads, analytics
    #: heartbeats) after page load.  Late requests extend the window in
    #: which the *immediate* lifetime model still considers the session
    #: reusable, so this knob controls the endless/immediate spread of
    #: Table 1 without touching the endless numbers.
    late_activity_share: float = 0.22
    late_activity_max_s: float = 30.0


@dataclass
class Visit:
    """The full observable outcome of one page visit."""

    url: str
    domain: str
    started_at: float
    load: PageLoadResult | None
    connections: list[Http2Connection]
    netlog: NetLog
    observed_until: float
    unreachable: bool = False

    @property
    def ok(self) -> bool:
        return not self.unreachable

    def h2_connections(self) -> list[Http2Connection]:
        return [conn for conn in self.connections if conn.protocol == "h2"]


@dataclass
class ChromiumBrowser:
    """Visits synthetic websites through the substrate stack."""

    ecosystem: Ecosystem
    resolver: RecursiveResolver
    clock: SimClock
    rng: random.Random
    config: BrowserConfig = field(default_factory=BrowserConfig)
    #: Optional per-site fault plan (see :mod:`repro.faults`): wired
    #: into the pool, the loader and — via :class:`FaultedEndpoint`
    #: wrappers around every server lookup — the origin side.  ``None``
    #: leaves every layer on its pre-fault code path.
    faults: "FaultPlan | None" = None

    def visit(self, url_or_domain: str) -> Visit:
        """Visit a page through a fresh pool and loader.

        Accepts a bare domain (landing page) or a URL/path such as
        ``site.com/page/1`` to visit an internal page.
        """
        stripped = url_or_domain.removeprefix("https://").rstrip("/")
        domain, _, path_part = stripped.partition("/")
        path = f"/{path_part}" if path_part else "/"
        del stripped
        started = self.clock.now()
        netlog = NetLog()
        netlog.emit(
            NetLogEventType.PAGE_LOAD_START,
            time=started,
            source_id=0,
            url=f"https://{domain}/",
        )

        site = self.ecosystem.website(domain)
        document = site.document_for(path) if site is not None else None
        reachable = document is not None and domain in self.ecosystem.namespace
        if not reachable:
            return Visit(
                url=f"https://{domain}/",
                domain=domain,
                started_at=started,
                load=None,
                connections=[],
                netlog=netlog,
                observed_until=started,
                unreachable=True,
            )

        server_lookup = self.ecosystem.server_for_ip
        if self.faults is not None:
            faults, clock = self.faults, self.clock

            def server_lookup(ip, _inner=self.ecosystem.server_for_ip):
                # One wrapper per connection attempt: burst and
                # certificate state stay scoped to that connection and
                # never touch the shared ecosystem servers.
                return FaultedEndpoint(
                    inner=_inner(ip), faults=faults, clock=clock
                )

        pool = ConnectionPool(
            server_lookup=server_lookup,
            rng=random.Random(self.rng.random()),
            netlog=netlog,
            ignore_privacy_mode=self.config.ignore_privacy_mode,
            honor_origin_frame=self.config.honor_origin_frame,
            # The h3_profile axis activates discovery per-world, so the
            # per-site crawl tasks need no extra wiring (a process
            # worker rebuilding the world rebuilds this flag with it).
            h3_discovery=self.ecosystem.config.h3_profile != "none",
            faults=self.faults,
        )
        loader = PageLoader(
            pool=pool,
            resolver=self.resolver,
            clock=self.clock,
            rng=random.Random(self.rng.random()),
            netlog=netlog,
            geo_rewrites=self.ecosystem.geo_rewrites(self.config.vantage_country),
            faults=self.faults,
        )
        load = loader.load(document)

        observed_until = self._observe(pool, netlog, started)
        return Visit(
            url=site.url,
            domain=domain,
            started_at=started,
            load=load,
            connections=list(pool.sessions),
            netlog=netlog,
            observed_until=observed_until,
            unreachable=False,
        )

    def _observe(self, pool: ConnectionPool, netlog: NetLog, started: float) -> float:
        """Dwell on the page; a few servers close sessions early."""
        end = started + self.config.observe_s
        for session in pool.sessions:
            if not session.is_open or session.protocol != "h2":
                continue
            if self.rng.random() < self.config.late_activity_share:
                at = self.clock.now() + self.rng.uniform(
                    1.0, self.config.late_activity_max_s
                )
                try:
                    record = session.perform_request(
                        session.sni,
                        "/keepalive",
                        now=at,
                        with_credentials=not session.privacy_mode,
                        service_time=0.02,
                    )
                except (ConnectionClosedError, StreamResetError):
                    # An injected GOAWAY/RST can strike the keepalive;
                    # late activity on that session simply never lands.
                    continue
                netlog.emit(
                    NetLogEventType.HTTP2_STREAM,
                    time=record.started_at,
                    source_id=session.connection_id,
                    url=record.url,
                    method=record.method,
                    status=record.status,
                    with_credentials=record.with_credentials,
                    finished=record.finished_at,
                    body_size=record.body_size,
                )
        for session in pool.sessions:
            if not session.is_open:
                continue
            if self.rng.random() < self.config.early_close_share:
                lifetime = self.rng.lognormvariate(
                    math.log(self.config.early_close_median_s),
                    self.config.early_close_sigma,
                )
                close_at = session.created_at + lifetime
                if close_at < end:
                    session.receive_goaway(now=close_at)
                    netlog.emit(
                        NetLogEventType.HTTP2_SESSION_RECV_GOAWAY,
                        time=close_at,
                        source_id=session.connection_id,
                    )
                    netlog.emit(
                        NetLogEventType.HTTP2_SESSION_CLOSE,
                        time=close_at,
                        source_id=session.connection_id,
                        reason="goaway",
                    )
        self.clock.advance_to(max(self.clock.now(), end))
        pool.close_all(now=end, reason="test-end")
        return end
