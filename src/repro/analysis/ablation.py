"""Mitigation ablations.

The paper's conclusion names three mitigation levers; each maps to one
switch in the reproduction, so their effect can be measured directly:

* **Fetch Standard adaptation** — browsers drop the credentials
  partition (``ignore_privacy_mode``); removes CRED entirely (§5.3.3).
* **Coordinated DNS / Anycast** — services point coalescable domains at
  the same answers (``coalesce_friendly_dns``); collapses the IP cause
  for the parties that adopt it (§5.3.1).
* **Certificate merging** — sharding operators consolidate per-shard
  certificates (``merged_certificates``); removes the CERT cause.
* **ORIGIN frames (RFC 8336)** — servers advertise reusable origins and
  the browser honours them (``advertise_origin_frames`` +
  ``honor_origin_frame``); lets reuse succeed without an IP match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import CorpusReport
from repro.core.session import LifetimeModel
from repro.crawl.alexa import AlexaCrawler, AlexaVariant
from repro.runtime import world_index_for
from repro.web.ecosystem import EcosystemConfig

__all__ = ["MitigationOutcome", "MitigationComparison", "compare_mitigations"]


@dataclass(frozen=True)
class MitigationOutcome:
    """Aggregate effect of one mitigation."""

    name: str
    report: CorpusReport

    @property
    def redundant_connections(self) -> int:
        return self.report.redundant_connections

    @property
    def redundant_share(self) -> float:
        if self.report.h2_connections == 0:
            return 0.0
        return self.report.redundant_connections / self.report.h2_connections


@dataclass
class MitigationComparison:
    """Baseline vs. every mitigation, measured on the same site list."""

    baseline: MitigationOutcome
    outcomes: dict[str, MitigationOutcome] = field(default_factory=dict)

    def reduction(self, name: str) -> float:
        """Redundant-connection reduction of ``name`` vs. the baseline."""
        if self.baseline.redundant_connections == 0:
            return 0.0
        return 1.0 - (
            self.outcomes[name].redundant_connections
            / self.baseline.redundant_connections
        )

    def render(self) -> str:
        lines = [
            "Mitigation ablations (redundant connections vs. baseline)",
            f"  baseline: {self.baseline.redundant_connections} redundant "
            f"({self.baseline.redundant_share:.0%} of connections)",
        ]
        for name, outcome in self.outcomes.items():
            lines.append(
                f"  {name:<22} {outcome.redundant_connections:>6} redundant "
                f"(-{self.reduction(name):.0%})"
            )
        return "\n".join(lines)


def _measure(
    config: EcosystemConfig,
    *,
    name: str,
    seed: int,
    top: int,
    ignore_privacy_mode: bool = False,
    honor_origin_frame: bool = False,
) -> MitigationOutcome:
    world = world_index_for(config)
    crawler = AlexaCrawler(world=world, seed=seed)
    domains = world.alexa_list(top)
    run = crawler.run(domains, AlexaVariant(
        f"mitigation-{name}",
        ignore_privacy_mode=ignore_privacy_mode,
        honor_origin_frame=honor_origin_frame,
    ))
    dataset = run.classify(model=LifetimeModel.ACTUAL, name=name)
    return MitigationOutcome(name=name, report=dataset.report)


def compare_mitigations(
    *, seed: int = 7, n_sites: int = 300, top: int | None = None
) -> MitigationComparison:
    """Measure the baseline and all four mitigations, each on its world.

    Every variant reuses the same seed, so the site population and
    embeds are identical up to the mitigated infrastructure itself.
    """
    top = top or n_sites
    base_config = EcosystemConfig(seed=seed, n_sites=n_sites)
    baseline = _measure(base_config, name="baseline", seed=seed + 900, top=top)
    comparison = MitigationComparison(baseline=baseline)

    comparison.outcomes["no-fetch-credentials"] = _measure(
        base_config,
        name="no-fetch-credentials",
        seed=seed + 900,
        top=top,
        ignore_privacy_mode=True,
    )
    comparison.outcomes["coordinated-dns"] = _measure(
        EcosystemConfig(seed=seed, n_sites=n_sites, coalesce_friendly_dns=True),
        name="coordinated-dns",
        seed=seed + 900,
        top=top,
    )
    comparison.outcomes["merged-certificates"] = _measure(
        EcosystemConfig(seed=seed, n_sites=n_sites, merged_certificates=True),
        name="merged-certificates",
        seed=seed + 900,
        top=top,
    )
    comparison.outcomes["origin-frames"] = _measure(
        EcosystemConfig(seed=seed, n_sites=n_sites, advertise_origin_frames=True),
        name="origin-frames",
        seed=seed + 900,
        top=top,
        honor_origin_frame=True,
    )
    return comparison
