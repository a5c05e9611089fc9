"""Microbenchmarks for the per-site hot path.

Each benchmark exercises one component with a deterministic workload
(fixed seeds, fixed iteration counts) and reports the best of a few
repeats — the standard defence against scheduler noise.  The workloads
are shaped like the study's real traffic (repetitive header lists,
recurring hostnames, TTL-expiring resolver queries), so caches and
memoization are measured the way production hits them.

    PYTHONPATH=src python -m repro bench --hotpath
"""

from __future__ import annotations

import pickle
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["MicroResult", "run_microbenchmarks"]


@dataclass(frozen=True, slots=True)
class MicroResult:
    """One microbenchmark outcome."""

    name: str
    iterations: int
    seconds: float
    note: str = ""

    @property
    def ops_per_s(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.iterations / self.seconds

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "iterations": self.iterations,
            "seconds": round(self.seconds, 6),
            "ops_per_s": round(self.ops_per_s, 1),
            "note": self.note,
        }


def _best_of(fn: Callable[[], int], repeat: int) -> tuple[int, float]:
    """Run ``fn`` ``repeat`` times; return (iterations, best seconds)."""
    best = float("inf")
    iterations = 0
    for _ in range(repeat):
        started = time.perf_counter()
        iterations = fn()
        best = min(best, time.perf_counter() - started)
    return iterations, best


def _header_blocks(count: int, seed: int = 7) -> list[list[tuple[str, str]]]:
    rng = random.Random(seed)
    names = ["accept", "accept-encoding", "cache-control", "cookie",
             "referer", "user-agent", "x-request-id", "authorization"]
    values = ["", "gzip, deflate", "max-age=60", "session=abc123",
              "https://site000001.com/", "Mozilla/5.0", "0123456789" * 4]
    blocks = []
    for _ in range(count):
        block = [
            (":method", "GET"), (":scheme", "https"),
            (":authority", f"site{rng.randint(1, 25):06d}.com"),
            (":path", f"/asset-{rng.randint(1, 40)}"),
        ]
        for _ in range(rng.randint(1, 5)):
            block.append((rng.choice(names), rng.choice(values)))
        blocks.append(block)
    return blocks


def _bench_hpack_encode(repeat: int) -> MicroResult:
    from repro.h2.hpack import HpackEncoder

    blocks = _header_blocks(400)

    def work() -> int:
        encoder = HpackEncoder()
        for block in blocks:
            encoder.encode(block)
        return len(blocks)

    iterations, seconds = _best_of(work, repeat)
    return MicroResult("hpack-encode", iterations, seconds,
                       note="header blocks re-encoded as the perf "
                            "estimator prices one connection")


def _bench_hostname_verify(repeat: int) -> MicroResult:
    from repro.tls.certificate import Certificate

    rng = random.Random(13)
    certs = [
        Certificate(
            serial=index,
            subject=f"svc{index:03d}.com",
            sans=(f"svc{index:03d}.com", f"*.svc{index:03d}.com",
                  f"cdn{index % 7}.net"),
            issuer_org="CA",
        )
        for index in range(40)
    ]
    hosts = [f"svc{rng.randrange(50):03d}.com" for _ in range(200)]
    hosts += [f"img.svc{rng.randrange(50):03d}.com" for _ in range(200)]

    def work() -> int:
        matched = 0
        for host in hosts:
            for cert in certs:
                if cert.covers(host):
                    matched += 1
        return len(hosts) * len(certs)

    iterations, seconds = _best_of(work, repeat)
    return MicroResult("hostname-verify", iterations, seconds,
                       note="certificate.covers() calls (memoized hot shape)")


def _bench_resolver_cache(repeat: int) -> MicroResult:
    from repro.dns.loadbalancer import RotationPolicy
    from repro.dns.resolver import RecursiveResolver, ResolverInfo
    from repro.dns.zone import AddressEntry, DnsNamespace

    namespace = DnsNamespace()
    policy = RotationPolicy(answer_count=2, period_s=360.0)
    for index in range(60):
        namespace.add_address(
            f"name{index:03d}.com",
            AddressEntry(
                pool=tuple(f"10.1.{index}.{host}" for host in range(1, 5)),
                ttl=60,
                policy=policy,
            ),
        )
    names = [f"name{index:03d}.com" for index in range(60)]

    def work() -> int:
        resolver = RecursiveResolver(
            namespace=namespace,
            info=ResolverInfo(resolver_id="bench", ip="0.0.0.0",
                              country="n/a", operator="bench"),
            sweep_interval=512,
        )
        queries = 0
        now = 0.0
        while now < 3600.0:  # one simulated hour: TTLs expire 60 times
            for name in names:
                resolver.resolve(name, now=now)
                queries += 1
            now += 12.0
        return queries

    iterations, seconds = _best_of(work, repeat)
    return MicroResult("resolver-ttl-cache", iterations, seconds,
                       note="queries over one simulated hour (60s TTLs)")


def _shared_ecosystem():
    from repro.web.ecosystem import Ecosystem, EcosystemConfig

    return Ecosystem.generate(EcosystemConfig(seed=7, n_sites=40))


def _bench_pool_coalescing(ecosystem, repeat: int) -> MicroResult:
    from repro.browser.pool import ConnectionPool

    domains = [site.domain for site in ecosystem.websites]
    resolver = ecosystem.make_resolver("bench-pool")
    answers = {
        domain: resolver.resolve(domain, now=0.0).ips for domain in domains
    }

    def work() -> int:
        pool = ConnectionPool(
            server_lookup=ecosystem.server_for_ip, rng=random.Random(7)
        )
        lookups = 0
        for round_index in range(6):
            for domain in domains:
                pool.get_connection(
                    domain, answers[domain],
                    privacy_mode=bool(round_index % 2), now=float(round_index),
                )
                lookups += 1
        return lookups

    iterations, seconds = _best_of(work, repeat)
    return MicroResult("pool-coalescing", iterations, seconds,
                       note="get_connection calls incl. coalescing scans")


def _bench_page_load(ecosystem, repeat: int) -> MicroResult:
    from repro.browser.browser import ChromiumBrowser
    from repro.util.clock import SimClock

    domains = [site.domain for site in ecosystem.websites[:15]]

    def work() -> int:
        browser = ChromiumBrowser(
            ecosystem=ecosystem,
            resolver=ecosystem.make_resolver("bench-visit"),
            clock=SimClock(),
            rng=random.Random(7),
        )
        requests = 0
        for domain in domains:
            visit = browser.visit(domain)
            for connection in visit.connections:
                requests += len(connection.requests)
        return requests

    iterations, seconds = _best_of(work, repeat)
    return MicroResult("page-load", iterations, seconds,
                       note="requests across full browser visits")


def _bench_ecosystem_generate(repeat: int) -> MicroResult:
    from repro.web.ecosystem import Ecosystem, EcosystemConfig

    def work() -> int:
        config = EcosystemConfig(seed=7, n_sites=60)
        return len(Ecosystem.generate(config).websites)

    iterations, seconds = _best_of(work, repeat)
    return MicroResult("ecosystem-generate", iterations, seconds,
                       note="sites generated from scratch (no world cache)")


def _bench_artefact_pickle(repeat: int) -> MicroResult:
    from repro.core.session import LifetimeModel
    from repro.crawl.alexa import AlexaCrawler, AlexaVariant
    from repro.runtime import world_index_for
    from repro.web.ecosystem import EcosystemConfig

    world = world_index_for(EcosystemConfig(seed=7, n_sites=60))
    crawl = AlexaCrawler(world=world).run(
        list(world.domains), AlexaVariant("fetch")
    )
    # One shard over every reachable site: what a 1-shard study caches
    # under ``classify/``.
    artefact = crawl.classify(model=LifetimeModel.ACTUAL)
    records = sum(
        len(classification.records)
        for classification in artefact.classifications.values()
    )

    def work() -> int:
        pickle.loads(pickle.dumps(artefact, protocol=pickle.HIGHEST_PROTOCOL))
        return records

    iterations, seconds = _best_of(work, repeat)
    return MicroResult("artefact-pickle", iterations, seconds,
                       note="session records through one dump and one load "
                            "of a 60-site classify shard artefact, as the "
                            "study cache stores and reads it")


def _bench_warm_study(repeat: int) -> MicroResult:
    from repro.analysis.study import Study, StudyConfig
    from repro.runtime import clear_ecosystem_cache
    from repro.store import StudyCache

    config = StudyConfig(seed=7, n_sites=60, dns_study_days=0.25, shards=4)
    with tempfile.TemporaryDirectory(prefix="repro-warm-study-") as directory:
        Study.run(config, cache=StudyCache(directory))

        def work() -> int:
            # A warm study in a process that holds no world, as a
            # restarted server or a rotation past the world cache sees.
            clear_ecosystem_cache()
            Study.run(config, cache=StudyCache(directory))
            return config.n_sites

        iterations, seconds = _best_of(work, repeat)
    return MicroResult("warm-study", iterations, seconds,
                       note="sites of a 60-site 4-shard study whose every "
                            "shard is cached, world cache cleared first")


def run_microbenchmarks(*, repeat: int = 3) -> list[MicroResult]:
    """Run every hot-path microbenchmark; deterministic workloads."""
    ecosystem = _shared_ecosystem()
    return [
        _bench_hpack_encode(repeat),
        _bench_hostname_verify(repeat),
        _bench_resolver_cache(repeat),
        _bench_pool_coalescing(ecosystem, repeat),
        _bench_page_load(ecosystem, repeat),
        _bench_ecosystem_generate(repeat),
        _bench_artefact_pickle(repeat),
        _bench_warm_study(repeat),
    ]
