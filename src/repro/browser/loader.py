"""The page loader: walks a page's resource tree through the pool.

Resources are loaded breadth-first in document order; a resource's
children (requests its script issues once executed) are queued after it
completes, reproducing the paper's observed chains (GTM script → GA
script → GA beacon).  For every request the loader:

1. applies the crawler's geo rewrites (``www.google.com`` →
   ``www.google.de`` from the German vantage point, Appendix A.3);
2. runs the Fetch Standard credentials decision;
3. resolves DNS through the crawl's recursive resolver;
4. asks the session pool for a connection (exact key → coalescing →
   new);
5. performs the request, handling 421 by retrying on a dedicated
   connection, as Chromium does (RFC 7540 §9.1.2).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.browser.fetch import decide_credentials
from repro.browser.pool import ConnectionPool, PoolDecision
from repro.dns.resolver import DnsTimeout, RecursiveResolver, ServFail
from repro.dns.zone import NxDomain
from repro.faults.plan import FaultKind
from repro.h2.connection import (
    HTTP_MISDIRECTED_REQUEST,
    ConnectionClosedError,
    Http2Connection,
    RequestRecord,
)
from repro.h2.stream import StreamResetError
from repro.netlog.events import NetLog, NetLogEventType
from repro.tls.verify import CertificateError
from repro.util.clock import SimClock
from repro.web.resources import Resource, ResourceType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

__all__ = ["LoadedRequest", "PageLoadResult", "PageLoader"]


@dataclass(frozen=True, slots=True)
class LoadedRequest:
    """One completed request plus the connection that carried it."""

    record: RequestRecord
    connection: Http2Connection
    coalesced: bool
    retried_after_421: bool = False
    #: The request rode an alt-svc-driven h3 upgrade (h3_profile axis).
    h3_upgraded: bool = False


@dataclass(slots=True)
class PageLoadResult:
    """Everything one page load produced."""

    url: str
    document_domain: str
    started_at: float
    finished_at: float
    requests: list[LoadedRequest] = field(default_factory=list)
    dns_failures: list[str] = field(default_factory=list)
    misdirected: list[str] = field(default_factory=list)
    #: Domains whose handshake failed certificate verification (fault
    #: injection); each failed attempt appends once.
    tls_failures: list[str] = field(default_factory=list)
    #: Streams torn down by RST_STREAM before a response arrived.
    stream_resets: int = 0
    #: 5xx responses observed (including ones cleared by the retry).
    server_errors: int = 0
    #: Connections obtained as alt-svc h3 upgrades during this load.
    h3_upgrades: int = 0

    @property
    def load_time(self) -> float:
        return self.finished_at - self.started_at


@dataclass
class PageLoader:
    """Loads one page through a (fresh) pool and (shared) resolver."""

    pool: ConnectionPool
    resolver: RecursiveResolver
    clock: SimClock
    rng: random.Random
    netlog: NetLog | None = None
    geo_rewrites: dict[str, str] = field(default_factory=dict)
    #: Per-request latency bounds in seconds (uniformly sampled).
    min_latency: float = 0.005
    max_latency: float = 0.080
    #: Parse/execute delay before each subresource fetch.  These gaps
    #: matter to the *immediate* lifetime model (§4.2.1): a connection
    #: whose last request finished before the gap is considered closed.
    min_think: float = 0.05
    max_think: float = 2.0
    #: Extra deferral for beacons, which browsers fire at/after onload.
    beacon_delay_max: float = 12.0
    #: Optional fault plan (latency spikes are applied loader-side, and
    #: the retry/fallback paths below only exist to absorb its strikes).
    faults: "FaultPlan | None" = None
    #: Breadth-first work queue, reused across page loads.
    _queue: deque = field(default_factory=deque, repr=False)

    def _latency(self) -> float:
        latency = self.rng.uniform(self.min_latency, self.max_latency)
        faults = self.faults
        if faults is not None and faults.fires(FaultKind.SRV_LATENCY_SPIKE):
            latency *= faults.param(FaultKind.SRV_LATENCY_SPIKE, 25.0)
        return latency

    def _resolve(self, domain: str) -> tuple[str, ...] | None:
        try:
            answer = self.resolver.resolve(domain, now=self.clock.now())
        except NxDomain:
            return None
        except (ServFail, DnsTimeout):
            # Transient resolver failure: browsers re-ask once before
            # giving the page up on the name.
            try:
                answer = self.resolver.resolve(domain, now=self.clock.now())
            except (NxDomain, ServFail, DnsTimeout):
                return None
        if self.netlog is not None:
            self.netlog.emit(
                NetLogEventType.HOST_RESOLVER_IMPL_JOB,
                time=self.clock.now(),
                source_id=0,
                host=domain,
                address_list=list(answer.ips),
            )
        return answer.ips

    def _perform(
        self,
        connection: Http2Connection,
        domain: str,
        path: str,
        *,
        with_credentials: bool,
    ) -> RequestRecord:
        record = connection.perform_request(
            domain,
            path,
            now=self.clock.now(),
            with_credentials=with_credentials,
            service_time=self._latency(),
        )
        self.clock.advance_to(record.finished_at)
        if self.netlog is not None:
            self.netlog.emit(
                NetLogEventType.HTTP2_STREAM,
                time=record.started_at,
                source_id=connection.connection_id,
                url=record.url,
                method=record.method,
                status=record.status,
                with_credentials=record.with_credentials,
                finished=record.finished_at,
                body_size=record.body_size,
            )
        return record

    def load(self, document: Resource) -> PageLoadResult:
        """Load ``document`` and its entire resource tree."""
        started = self.clock.now()
        result = PageLoadResult(
            url=document.url,
            document_domain=document.domain,
            started_at=started,
            finished_at=started,
        )
        queue: deque[Resource] = self._queue
        queue.clear()
        queue.append(document)
        while queue:
            resource = queue.popleft()
            loaded = self._load_one(resource, document.domain, result)
            if loaded is not None:
                queue.extend(resource.children)
        result.finished_at = self.clock.now()
        if self.netlog is not None:
            self.netlog.emit(
                NetLogEventType.PAGE_LOAD_END,
                time=result.finished_at,
                source_id=0,
                url=result.url,
            )
        return result

    def _connect(
        self,
        domain: str,
        ips: tuple[str, ...],
        privacy_mode: bool,
        result: PageLoadResult,
        *,
        force_new: bool = False,
    ) -> PoolDecision | None:
        """Ask the pool for a session, absorbing TLS handshake faults.

        A failed verification (injected expired/mismatched/untrusted
        certificate) is recorded on the result and reported as ``None``
        so callers can retry or abandon the resource; without a fault
        plan this is exactly ``pool.get_connection``.
        """
        try:
            return self.pool.get_connection(
                domain,
                ips,
                privacy_mode=privacy_mode,
                now=self.clock.now(),
                force_new=force_new,
            )
        except CertificateError:
            result.tls_failures.append(domain)
            return None

    def _load_one(
        self, resource: Resource, document_domain: str, result: PageLoadResult
    ) -> LoadedRequest | None:
        if resource.rtype is not ResourceType.DOCUMENT:
            self.clock.advance(self.rng.uniform(self.min_think, self.max_think))
        if resource.rtype is ResourceType.BEACON:
            self.clock.advance(self.rng.uniform(0.5, self.beacon_delay_max))
        domain = self.geo_rewrites.get(resource.domain, resource.domain)
        decision = decide_credentials(
            resource.mode, request_domain=domain, document_domain=document_domain
        )
        ips = self._resolve(domain)
        if ips is None:
            result.dns_failures.append(domain)
            return None

        pool_decision = self._connect(
            domain, ips, decision.privacy_mode, result
        )
        if pool_decision is None:
            # One more handshake (the endpoint redraws its certificate
            # fault); browsers likewise retry a failed socket once
            # before surfacing the TLS interstitial.
            pool_decision = self._connect(
                domain, ips, decision.privacy_mode, result, force_new=True
            )
            if pool_decision is None:
                return None
        connection = pool_decision.connection
        try:
            record = self._perform(
                connection,
                domain,
                resource.path,
                with_credentials=decision.include_credentials,
            )
        except (ConnectionClosedError, StreamResetError) as error:
            if isinstance(error, StreamResetError):
                result.stream_resets += 1
            pool_decision = self._connect(
                domain, ips, decision.privacy_mode, result, force_new=True
            )
            if pool_decision is None:
                return None
            connection = pool_decision.connection
            try:
                record = self._perform(
                    connection,
                    domain,
                    resource.path,
                    with_credentials=decision.include_credentials,
                )
            except (ConnectionClosedError, StreamResetError) as retry_error:
                # A second strike on a fresh session: give the resource
                # up, as the browser's error page would.
                if isinstance(retry_error, StreamResetError):
                    result.stream_resets += 1
                return None

        if record.status >= 500:
            # 5xx burst: one retry on the same session — short bursts
            # clear, long ones leave the resource failed.
            result.server_errors += 1
            try:
                record = self._perform(
                    connection,
                    domain,
                    resource.path,
                    with_credentials=decision.include_credentials,
                )
            except (ConnectionClosedError, StreamResetError):
                return None
            if record.status >= 500:
                result.server_errors += 1

        retried = False
        if record.status == HTTP_MISDIRECTED_REQUEST:
            # RFC 7540 §9.1.2: retry on a connection that is not
            # coalesced; the domain is remembered as non-reusable and
            # the failing endpoint is avoided when alternatives exist.
            result.misdirected.append(domain)
            retry_ips = tuple(
                ip for ip in ips if ip != connection.remote_ip
            ) or ips
            retry_decision = self._connect(
                domain, retry_ips, decision.privacy_mode, result,
                force_new=True,
            )
            if retry_decision is None:
                return None
            connection = retry_decision.connection
            try:
                record = self._perform(
                    connection,
                    domain,
                    resource.path,
                    with_credentials=decision.include_credentials,
                )
            except (ConnectionClosedError, StreamResetError):
                return None
            retried = True
            if record.status >= 500:
                result.server_errors += 1

        if pool_decision.h3_upgraded and not retried:
            result.h3_upgrades += 1
        loaded = LoadedRequest(
            record=record,
            connection=connection,
            coalesced=pool_decision.coalesced and not retried,
            retried_after_421=retried,
            h3_upgraded=pool_decision.h3_upgraded and not retried,
        )
        result.requests.append(loaded)
        if record.status >= 500:
            # The response is observed (and recorded) but the resource
            # failed: its children never execute.
            return None
        return loaded
