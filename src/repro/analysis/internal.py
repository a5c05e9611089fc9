"""Landing vs. internal pages (extension beyond the paper).

The paper notes as a limitation: "we only review landing pages, which
can show different behavior than internal pages [1]" (§4.3, citing
Aqeel et al., IMC '20).  The synthetic sites carry internal pages that
retain only part of the landing page's third parties, so this module
can quantify how much the landing-page-only methodology over- or
under-states redundancy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.browser.browser import BrowserConfig, ChromiumBrowser
from repro.core.report import CorpusReport
from repro.core.classifier import classify_site
from repro.core.session import LifetimeModel, records_from_visit
from repro.util.clock import SimClock
from repro.util.rng import RngFactory
from repro.web.ecosystem import Ecosystem

__all__ = ["InternalPagesComparison", "compare_landing_vs_internal"]


@dataclass
class InternalPagesComparison:
    """Redundancy on landing pages vs. internal pages, same sites."""

    landing: CorpusReport
    internal: CorpusReport

    def landing_bias(self) -> float:
        """Landing-page redundant-site share minus internal-page share.

        Positive = the paper's landing-page methodology *over*states
        redundancy relative to internal pages.
        """
        return (
            self.landing.redundant_site_share()
            - self.internal.redundant_site_share()
        )

    def render(self) -> str:
        def conns_per_site(report: CorpusReport) -> float:
            if report.h2_sites == 0:
                return 0.0
            return report.h2_connections / report.h2_sites

        lines = [
            "Landing vs internal pages (extension; paper §4.3 limitation)",
            f"  {'':<12}{'red. sites':>12}{'red. conns':>12}{'conns/site':>12}",
            f"  {'landing':<12}"
            f"{self.landing.redundant_site_share():>11.0%} "
            f"{self.landing.redundant_connections:>11} "
            f"{conns_per_site(self.landing):>11.1f}",
            f"  {'internal':<12}"
            f"{self.internal.redundant_site_share():>11.0%} "
            f"{self.internal.redundant_connections:>11} "
            f"{conns_per_site(self.internal):>11.1f}",
            f"  landing-page bias: {self.landing_bias():+.0%} "
            "redundant-site share",
        ]
        return "\n".join(lines)


def compare_landing_vs_internal(
    ecosystem: Ecosystem,
    *,
    top: int = 100,
    seed: int = 5,
) -> InternalPagesComparison:
    """Visit each site's landing page and one internal page; classify both."""
    rng = RngFactory(seed)
    clock = SimClock()
    browser = ChromiumBrowser(
        ecosystem=ecosystem,
        resolver=ecosystem.make_resolver("internal-pages"),
        clock=clock,
        rng=rng.stream("browser"),
        config=BrowserConfig(),
    )
    landing_report = CorpusReport(name="landing")
    internal_report = CorpusReport(name="internal")
    for domain in ecosystem.index.alexa_list(top):
        site = ecosystem.website(domain)
        if site is None or not site.internal_paths:
            continue
        landing_visit = browser.visit(domain)
        if landing_visit.unreachable:
            continue
        landing_report.add_site(
            classify_site(domain, records_from_visit(landing_visit),
                          model=LifetimeModel.ACTUAL)
        )
        pick = random.Random(rng.stream("pick").random())
        internal_path = pick.choice(site.internal_paths)
        internal_visit = browser.visit(f"{domain}{internal_path}")
        if internal_visit.unreachable:
            continue
        internal_report.add_site(
            classify_site(domain, records_from_visit(internal_visit),
                          model=LifetimeModel.ACTUAL)
        )
    return InternalPagesComparison(landing=landing_report,
                                   internal=internal_report)
