"""First-party websites and their sharding configurations.

Domain sharding was an HTTP/1.1 performance trick (§2.1) whose structure
persists under HTTP/2.  Every synthetic site gets one of four layouts:

* ``NONE`` — everything on the root domain (no redundancy possible);
* ``SAME_CERT_SAME_IP`` — shards behind a wildcard certificate on the
  same endpoint: HTTP/2 Connection Reuse *works*, the happy path the
  standard intended;
* ``SEPARATE_CERTS`` — per-shard certificates (certbot's default when
  run per-subdomain, the Let's Encrypt long tail of Table 3) on the same
  endpoint → CERT redundancy;
* ``SAME_CERT_DIFF_IP`` — wildcard certificate but shards resolve to
  different endpoints → IP redundancy.

Some sharded sites additionally fetch a webfont or anonymous XHR from
their shard: a cross-origin anonymous request that lands in the other
pool partition → same-domain CRED redundancy.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.dns.zone import AddressEntry, DnsNamespace
from repro.dns.loadbalancer import StaticPolicy
from repro.tls.issuers import (
    AMAZON_CA,
    CLOUDFLARE_CA,
    COMODO,
    DIGICERT,
    GLOBALSIGN,
    GODADDY,
    LETS_ENCRYPT,
    MICROSOFT_CA,
    SECTIGO,
    YANDEX_CA,
    IssuerRegistry,
)
from repro.web.hosting import HostingProvider, ProviderDirectory
from repro.web.resources import RequestMode, Resource, ResourceType
from repro.web.server import OriginServer, build_fleet

__all__ = ["ShardingStyle", "Website", "WebsiteFactory"]


class ShardingStyle(enum.Enum):
    NONE = "none"
    SAME_CERT_SAME_IP = "same-cert-same-ip"
    SEPARATE_CERTS = "separate-certs"
    SAME_CERT_DIFF_IP = "same-cert-diff-ip"


#: (issuer, weight) for first-party certificates — roughly the issuer
#: market share of the paper's Table 5.
_FP_ISSUER_WEIGHTS: tuple[tuple[str, float], ...] = (
    (LETS_ENCRYPT, 0.40),
    (CLOUDFLARE_CA, 0.14),
    (DIGICERT, 0.10),
    (SECTIGO, 0.10),
    (GODADDY, 0.08),
    (GLOBALSIGN, 0.06),
    (AMAZON_CA, 0.06),
    (COMODO, 0.03),
    (MICROSOFT_CA, 0.02),
    (YANDEX_CA, 0.01),
)

_TLD_WEIGHTS: tuple[tuple[str, float], ...] = (
    ("com", 0.52), ("net", 0.08), ("org", 0.08), ("de", 0.07), ("io", 0.05),
    ("fr", 0.04), ("jp", 0.04), ("ru", 0.04), ("br", 0.03), ("co.uk", 0.02),
    ("shop", 0.02), ("dev", 0.01),
)

_SHARD_LABELS = ("static", "img", "cdn", "assets", "media")


@dataclass
class Website:
    """One synthetic website: domain, popularity rank and its pages.

    Besides the landing page the paper crawls, sites carry internal
    pages (the paper's stated limitation: "we only review landing
    pages, which can show different behavior than internal pages [1]").
    Internal pages reuse a subset of the landing page's third parties,
    following Aqeel et al.'s finding that landing pages are heavier.
    """

    domain: str
    rank: int
    sharding: ShardingStyle
    document: Resource
    supports_h2: bool = True
    #: The shard hostnames minted for this site (empty when unsharded).
    #: Kept explicitly rather than derived from the page trees: a shard
    #: can exist in DNS without any sampled resource landing on it, and
    #: evolution (shard consolidation, fleet migration) must still see
    #: it.
    shards: tuple[str, ...] = ()
    embedded_services: tuple[str, ...] = ()
    internal_documents: dict[str, Resource] = field(default_factory=dict)

    @property
    def url(self) -> str:
        return f"https://{self.domain}/"

    def document_for(self, path: str) -> Resource | None:
        """The page tree served at ``path`` ("/" = landing page)."""
        if path in ("", "/"):
            return self.document
        return self.internal_documents.get(path)

    @property
    def internal_paths(self) -> list[str]:
        return sorted(self.internal_documents)

    # -- evolution hooks (see repro.evolve) ----------------------------
    def all_documents(self) -> list[Resource]:
        """The landing page plus every internal page tree."""
        return [self.document] + [
            self.internal_documents[path] for path in self.internal_paths
        ]

    def shard_domains(self) -> list[str]:
        """This site's current shard hostnames, sorted.

        Includes shards that carry no resources (they still exist in
        DNS and on the servers); emptied by shard consolidation.
        """
        return sorted(self.shards)

    def rewrite_domains(self, mapping: dict[str, str]) -> int:
        """Re-home resources per ``mapping`` (old domain -> new domain).

        The shard-consolidation churn uses this to fold shard resources
        back onto the root domain.  Returns the number of resources
        rewritten.
        """
        rewritten = 0
        for document in self.all_documents():
            for resource in document.walk():
                target = mapping.get(resource.domain)
                if target is not None and target != resource.domain:
                    resource.domain = target
                    rewritten += 1
        return rewritten


@dataclass
class WebsiteFactory:
    """Generates first-party sites and wires their infrastructure."""

    providers: ProviderDirectory
    namespace: DnsNamespace
    issuers: IssuerRegistry
    servers: dict[str, OriginServer]
    rng: random.Random
    share_sharded: float = 0.45
    share_h1_only: float = 0.06
    #: Split of sharding styles among sharded sites.
    style_weights: tuple[float, float, float] = (0.55, 0.15, 0.30)
    #: Probability a sharded site loads an anonymous font/XHR from its shard.
    shard_font_probability: float = 0.35
    #: Ablation: shard operators merge certificates, so SEPARATE_CERTS
    #: sites get one certificate covering every shard.
    merged_certificates: bool = False
    _sites_built: int = 0
    _hoster_cycle: list[HostingProvider] = field(default_factory=list)

    def _pick_issuer(self) -> str:
        issuers, weights = zip(*_FP_ISSUER_WEIGHTS)
        return self.rng.choices(issuers, weights=weights, k=1)[0]

    def _pick_hoster(self) -> HostingProvider:
        if not self._hoster_cycle:
            self._hoster_cycle = self.providers.generic_hosters()
            if not self._hoster_cycle:
                raise RuntimeError("no generic hosting providers registered")
        return self.rng.choice(self._hoster_cycle)

    def _mint_domain(self, rank: int) -> str:
        tlds, weights = zip(*_TLD_WEIGHTS)
        tld = self.rng.choices(tlds, weights=weights, k=1)[0]
        return f"site{rank:06d}.{tld}"

    def _first_party_resources(
        self, domains: list[str], rng: random.Random
    ) -> list[Resource]:
        """Images/scripts/styles spread over the root + shard domains."""
        count = max(3, int(rng.lognormvariate(2.1, 0.6)))
        resources = []
        for index in range(count):
            domain = domains[0] if len(domains) == 1 else rng.choice(domains)
            rtype = rng.choices(
                [ResourceType.IMAGE, ResourceType.SCRIPT, ResourceType.STYLESHEET,
                 ResourceType.XHR],
                weights=[0.55, 0.25, 0.15, 0.05],
                k=1,
            )[0]
            mode = RequestMode.NO_CORS
            resources.append(
                Resource(
                    domain=domain,
                    path=f"/assets/{rtype.value}-{index}",
                    rtype=rtype,
                    mode=mode,
                    size=rng.randint(500, 200_000),
                )
            )
        return resources

    def build_site(self, rank: int) -> Website:
        """Create site #``rank`` with DNS, certificates and servers."""
        rng = random.Random(self.rng.random())
        domain = self._mint_domain(rank)
        hoster = self._pick_hoster()
        issuer = self._pick_issuer()
        supports_h2 = rng.random() >= self.share_h1_only

        sharded = rng.random() < self.share_sharded
        if not sharded:
            style = ShardingStyle.NONE
            shards: list[str] = []
        else:
            style = rng.choices(
                [
                    ShardingStyle.SAME_CERT_SAME_IP,
                    ShardingStyle.SEPARATE_CERTS,
                    ShardingStyle.SAME_CERT_DIFF_IP,
                ],
                weights=list(self.style_weights),
                k=1,
            )[0]
            shards = [
                f"{label}.{domain}"
                for label in rng.sample(_SHARD_LABELS, rng.randint(1, 2))
            ]

        all_domains = [domain] + shards
        alpn = "h2" if supports_h2 else "http/1.1"

        if style in (ShardingStyle.NONE, ShardingStyle.SAME_CERT_SAME_IP):
            cert = self.issuers.issue(issuer, (domain, f"*.{domain}"))
            ips = hoster.addresses(1)
            fleet = build_fleet(
                ips, name=domain,
                cert_map={name: cert for name in all_domains}, alpn=alpn,
            )
            for server in fleet:
                self.servers[server.ip] = server
            for name in all_domains:
                self.namespace.add_address(
                    name, AddressEntry(pool=tuple(ips), policy=StaticPolicy())
                )
        elif style is ShardingStyle.SEPARATE_CERTS:
            # certbot run once per subdomain: one endpoint, N certs —
            # unless the merged-certificates ablation is active.
            ips = hoster.addresses(1)
            if self.merged_certificates:
                merged = self.issuers.issue(issuer, tuple(all_domains))
                cert_map = {name: merged for name in all_domains}
            else:
                cert_map = {
                    name: self.issuers.issue(issuer, (name,)) for name in all_domains
                }
            fleet = build_fleet(ips, name=domain, cert_map=cert_map, alpn=alpn)
            for server in fleet:
                self.servers[server.ip] = server
            for name in all_domains:
                self.namespace.add_address(
                    name, AddressEntry(pool=tuple(ips), policy=StaticPolicy())
                )
        else:  # SAME_CERT_DIFF_IP
            cert = self.issuers.issue(issuer, (domain, f"*.{domain}"))
            ips = hoster.addresses(len(all_domains))
            cert_map = {name: cert for name in all_domains}
            fleet = build_fleet(ips, name=domain, cert_map=cert_map, alpn=alpn)
            for server in fleet:
                self.servers[server.ip] = server
            for name, ip in zip(all_domains, ips):
                self.namespace.add_address(
                    name, AddressEntry(pool=(ip,), policy=StaticPolicy())
                )

        children = self._first_party_resources(all_domains, rng)
        if shards and rng.random() < self.shard_font_probability:
            # Cross-origin anonymous fetch to the site's own shard: the
            # first-party flavour of the same-domain CRED case.
            children.append(
                Resource(
                    domain=shards[0],
                    path="/fonts/brand.woff2",
                    rtype=ResourceType.FONT,
                    mode=RequestMode.CORS_ANON,
                    size=45_000,
                )
            )
        document = Resource(
            domain=domain,
            path="/",
            rtype=ResourceType.DOCUMENT,
            size=rng.randint(5_000, 150_000),
            children=children,
        )
        self._sites_built += 1
        return Website(
            domain=domain,
            rank=rank,
            sharding=style,
            document=document,
            supports_h2=supports_h2,
            shards=tuple(shards),
        )
