"""Deterministic fault plans.

The happy-path pipeline exercises none of the stack's failure handling:
every DNS answer arrives, every certificate verifies, every HTTP/2
stream completes.  This module is the seeded chaos layer that changes
that — *without* giving up reproducibility.

A fault profile is a :class:`~repro.util.scenario.Scenario` of
per-:class:`FaultKind` rates registered in :data:`FAULTS`; a
:class:`FaultPlan` compiles a profile for one ``(seed, run, domain)``
triple, exactly like the per-site crawl tasks derive their RNG streams.
Every hook point in the stack asks the plan ``fires(kind)`` at the
moment the corresponding real-world failure could occur; the plan draws
from a *per-kind* stream (see :class:`~repro.util.scenario.SeededPlan`),
so studies are executor-, per-site and per-kind independent.

The empty profile (``"none"``) compiles to ``None``: hook points
short-circuit on ``plan is None`` before touching any RNG, so a study
without faults is byte-identical to one built before this module
existed (the pinned golden digest proves it).

>>> from repro.faults import FAULTS, FaultPlan
>>> FAULTS.names()
['broken-tls', 'cache-rot', 'chaos', 'flaky-dns', 'h2-churn', 'none', 'slow-origin', 'worker-crash', 'worker-poison']
>>> FaultPlan.compile("none", seed=7, run="alexa-fetch", domain="a.com") is None
True
>>> plan = FaultPlan.compile("chaos", seed=7, run="alexa-fetch", domain="a.com")
>>> again = FaultPlan.compile("chaos", seed=7, run="alexa-fetch", domain="a.com")
>>> kind = min(FAULTS.lookup("chaos").kinds, key=lambda k: k.value)
>>> [plan.fires(kind) for _ in range(8)] == [again.fires(kind) for _ in range(8)]
True
"""

from __future__ import annotations

import enum
from typing import ClassVar

from repro.util.rng import stable_hash
from repro.util.scenario import Registry, Scenario, SeededPlan, Spec, halved

__all__ = ["FAULTS", "FaultKind", "FaultPlan"]


class FaultKind(enum.Enum):
    """Every failure the stack knows how to inject, by layer."""

    # DNS (repro.dns.resolver / repro.dns.loadbalancer)
    DNS_SERVFAIL = "dns-servfail"
    DNS_NXDOMAIN = "dns-nxdomain"
    DNS_TIMEOUT = "dns-timeout"
    DNS_STALE_TTL = "dns-stale-ttl"
    DNS_NARROWED = "dns-narrowed"
    # TLS (repro.tls.verify / repro.tls.certificate)
    TLS_EXPIRED = "tls-expired"
    TLS_SAN_MISMATCH = "tls-san-mismatch"
    TLS_UNTRUSTED_ISSUER = "tls-untrusted-issuer"
    # HTTP/2 (repro.h2.connection / repro.h2.stream)
    H2_GOAWAY = "h2-goaway"
    H2_RST_STREAM = "h2-rst-stream"
    H2_SETTINGS_CHURN = "h2-settings-churn"
    # Origin server behaviour (repro.web.server, surfaced by the loader)
    SRV_ERROR_BURST = "srv-5xx-burst"
    SRV_LATENCY_SPIKE = "srv-latency-spike"
    SRV_TRUNCATED_BODY = "srv-truncated-body"
    # Task-level infrastructure failures (repro.runlog): these strike
    # the *execution* of a site task or the durability of its cached
    # artefact, never the simulated network, so inside a visit they are
    # invisible — a profile containing only task kinds digests
    # byte-identically to "none" once the run layer recovers them.
    TASK_WORKER_CRASH = "worker-crash"
    TASK_CACHE_ROT = "cache-rot"


#: Kinds that break the TLS handshake; their presence in a profile turns
#: on certificate verification in the session pool.
_TLS_KINDS = frozenset(
    (FaultKind.TLS_EXPIRED, FaultKind.TLS_SAN_MISMATCH,
     FaultKind.TLS_UNTRUSTED_ISSUER)
)


_FLAKY_DNS = (
    Spec(FaultKind.DNS_TIMEOUT, rate=0.06),
    Spec(FaultKind.DNS_SERVFAIL, rate=0.05),
    Spec(FaultKind.DNS_NXDOMAIN, rate=0.02),
    Spec(FaultKind.DNS_STALE_TTL, rate=0.25),
    Spec(FaultKind.DNS_NARROWED, rate=0.15, param=1.0),
)

_BROKEN_TLS = (
    Spec(FaultKind.TLS_EXPIRED, rate=0.05),
    Spec(FaultKind.TLS_SAN_MISMATCH, rate=0.04),
    Spec(FaultKind.TLS_UNTRUSTED_ISSUER, rate=0.03),
)

_H2_CHURN = (
    Spec(FaultKind.H2_GOAWAY, rate=0.04),
    Spec(FaultKind.H2_RST_STREAM, rate=0.05),
    Spec(FaultKind.H2_SETTINGS_CHURN, rate=0.03, param=0.0),
)

_SLOW_ORIGIN = (
    Spec(FaultKind.SRV_LATENCY_SPIKE, rate=0.10, param=25.0),
    Spec(FaultKind.SRV_ERROR_BURST, rate=0.04, param=3.0),
    Spec(FaultKind.SRV_TRUNCATED_BODY, rate=0.05, param=0.25),
)

#: The named scenario registry.  ``"none"`` is the inert default every
#: study runs under unless a fault profile is explicitly requested.
FAULTS = Registry(
    "fault profile",
    "profiles",
    (
        Scenario("none", "no injected faults (the baseline)"),
        Scenario(
            "flaky-dns",
            "SERVFAIL/NXDOMAIN/timeouts, stale-TTL answers, narrowed "
            "load-balancer pools",
            _FLAKY_DNS,
        ),
        Scenario(
            "broken-tls",
            "expired leaves, SAN mismatches and untrusted issuers at "
            "handshake time",
            _BROKEN_TLS,
        ),
        Scenario(
            "h2-churn",
            "mid-stream GOAWAYs, RST_STREAMs and SETTINGS churn forcing "
            "connection turnover",
            _H2_CHURN,
        ),
        Scenario(
            "slow-origin",
            "origin latency spikes, 5xx bursts and truncated bodies",
            _SLOW_ORIGIN,
        ),
        Scenario(
            "chaos",
            "every fault axis at half rate (the canonical faulted-golden "
            "scenario)",
            halved(_FLAKY_DNS + _BROKEN_TLS + _H2_CHURN + _SLOW_ORIGIN),
        ),
        # The task-level profiles below drive the repro.runlog tests;
        # they are deliberately absent from "chaos" because task faults
        # require the run layer to recover them, while chaos must stay
        # runnable through a bare executor (the faulted golden pins it).
        Scenario(
            "worker-crash",
            "a quarter of site tasks crash their worker once, then "
            "succeed on retry (recoverable; digests like 'none')",
            (Spec(FaultKind.TASK_WORKER_CRASH, rate=0.25, param=1.0),),
        ),
        Scenario(
            "worker-poison",
            "a small share of site tasks crash their worker on every "
            "attempt, forcing poison quarantine",
            (Spec(FaultKind.TASK_WORKER_CRASH, rate=0.02,
                  param=1_000_000.0),),
        ),
        Scenario(
            "cache-rot",
            "most freshly written shard artefacts are truncated on disk "
            "(recoverable: corrupt entries evict and recompute)",
            (Spec(FaultKind.TASK_CACHE_ROT, rate=0.6, param=0.5),),
        ),
    ),
)


class FaultPlan(SeededPlan):
    """A fault profile compiled for one site (``domain``) of one crawl
    run (``unit``).

    Hook points must only ever consult the plan at moments that are
    themselves deterministic within a site's visit (the whole visit is
    single-threaded, one plan per visit), which keeps every draw
    reproducible.  The fired-count tally feeds the resilience taxonomy.
    """

    TAG: ClassVar[str] = "fault"
    REGISTRY: ClassVar[Registry] = FAULTS

    @classmethod
    def compile(
        cls, profile: Scenario | str, *, seed: int, run: str, domain: str
    ) -> "FaultPlan | None":
        """Compile ``profile`` for one site; empty profiles yield ``None``.

        Returning ``None`` (rather than an inert plan object) is what
        makes the fault machinery provably free when unused: callers
        guard every hook on ``plan is not None``, so the no-fault code
        path is literally the pre-fault code path.
        """
        return cls._compile(profile, seed, run, domain)

    @property
    def verifies_tls(self) -> bool:
        """Whether connection setup should verify presented certificates."""
        return bool(self.scenario.kinds & _TLS_KINDS)

    def task_crash(self, attempt: int) -> bool:
        """Does the ``worker-crash`` fault strike this task attempt?

        Unlike :meth:`fires`, the verdict is a pure hash of
        ``(seed, run, domain)`` plus an attempt bound — *not* an RNG
        stream draw.  The plan is recompiled fresh inside each retry
        attempt's worker, so a stream draw would fire identically on
        every attempt and no crash could ever be recovered; the hash
        picks the same crashing domains every run, and ``param`` caps
        how many attempts they crash for (a huge ``param`` makes them
        poison).
        """
        spec = self.scenario.spec_for(FaultKind.TASK_WORKER_CRASH)
        if spec is None or spec.rate <= 0.0:
            return False
        if attempt >= spec.param:
            return False
        struck = stable_hash(
            "worker-crash", self.seed, self.unit, self.domain
        ) % 10_000 < spec.rate * 10_000
        if struck:
            self._tally(FaultKind.TASK_WORKER_CRASH)
        return struck
