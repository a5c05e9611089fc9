"""HTTP/3 coalescing analysis: an h3-rollout study vs. its h2 baseline.

The paper measures an h2-only web; :mod:`repro.h3` models the alt-svc
rollout that has happened since.  This report quantifies what that
rollout does to the paper's observables by diffing two studies of the
*same* configuration — one under ``h3_profile="none"``, one under a
named adoption profile — along three axes:

* **protocol split** — per dataset: how many connections negotiated h2
  vs. upgraded to h3 under the rollout (the clean run is h2-only by
  construction);
* **reuse impact** — per dataset: redundant connections and redundant
  shares, baseline vs. h3, with the percentage-point delta, plus the
  per-protocol CERT / IP / CRED attribution split (an h3 session can
  only ride an h3 witness, so the causes are counted per protocol);
* **coalescing potential** — the :mod:`repro.perf.whatif`
  counterfactual over the Alexa common sites: connections, setup time
  and total time a perfectly coalescing client would still save under
  each run — the "what if every advertised endpoint coalesced?"
  estimate the paper leaves to future work.

Both studies must share seed and scale; the report refuses apples-to-
oranges inputs instead of rendering misleading deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.baseline import check_baseline_pair, coverage_caveats
from repro.analysis.study import Study
from repro.core.causes import Cause
from repro.perf.whatif import WhatIfResult, whatif_site
from repro.util.formatting import align_table, pp_delta

__all__ = ["H3Result", "h3_report"]


@dataclass(frozen=True)
class H3Result:
    """The rendered-ready diff of one h3-rollout study against baseline."""

    baseline: Study
    h3: Study

    @property
    def profile_name(self) -> str:
        return self.h3.config.h3_profile

    # ------------------------------------------------------------------
    def shared_datasets(self) -> list[str]:
        """Dataset keys present in both studies, baseline order."""
        return [
            name for name in self.baseline.datasets
            if name in self.h3.datasets
        ]

    def protocol_rows(self) -> list[list[str]]:
        rows = []
        for name in self.shared_datasets():
            base = self.baseline.datasets[name].report
            h3 = self.h3.datasets[name].report
            total = h3.h2_connections + h3.h3_connections
            share = h3.h3_connections / total if total else 0.0
            rows.append([
                name,
                str(base.h2_connections),
                str(h3.h2_connections),
                str(h3.h3_connections),
                f"{share:.1%}",
            ])
        return rows

    def reuse_rows(self) -> list[list[str]]:
        rows = []
        for name in self.shared_datasets():
            base = self.baseline.datasets[name].report
            h3 = self.h3.datasets[name].report
            base_total = base.h2_connections + base.h3_connections
            h3_total = h3.h2_connections + h3.h3_connections
            base_share = (
                base.redundant_connections / base_total if base_total else 0.0
            )
            h3_share = (
                h3.redundant_connections / h3_total if h3_total else 0.0
            )
            rows.append([
                name,
                str(base.redundant_connections),
                str(h3.redundant_connections),
                f"{base_share:.1%}",
                f"{h3_share:.1%}",
                pp_delta(h3_share - base_share),
            ])
        return rows

    def cause_rows(self) -> list[list[str]]:
        """The CERT / IP / CRED split of the h3 run, per protocol."""
        rows = []
        for name in self.shared_datasets():
            attribution = self.h3.datasets[name].attribution
            for protocol in sorted(attribution.protocol_causes):
                counter = attribution.protocol_causes[protocol]
                for cause in (Cause.CERT, Cause.IP, Cause.CRED):
                    count = counter.get(cause.value, 0)
                    if count == 0:
                        continue
                    rows.append([name, protocol, cause.value, str(count)])
        return rows

    # ------------------------------------------------------------------
    def _whatif(self, study: Study) -> list[WhatIfResult]:
        """Coalesced-counterfactual estimates over the Alexa common sites."""
        dataset = study.datasets.get("alexa")
        if dataset is None:
            return []
        results = []
        for site in study.alexa_common_sites:
            classification = dataset.classifications.get(site)
            if classification is None:
                continue
            results.append(whatif_site(
                site, list(classification.records), classification
            ))
        return results

    def whatif_rows(self) -> list[list[str]]:
        rows = []
        for label, study in (
            ("baseline", self.baseline),
            (f"h3 ({self.profile_name})", self.h3),
        ):
            estimates = self._whatif(study)
            sites = len(estimates)
            saved = sum(e.connections_saved for e in estimates)
            setup = sum(e.setup_time_saved_s for e in estimates)
            total = sum(e.total_time_saved_s for e in estimates)
            relative = (
                sum(e.relative_saving for e in estimates) / sites
                if sites else 0.0
            )
            rows.append([
                label, str(sites), str(saved),
                f"{setup:.2f} s", f"{total:.2f} s", f"{relative:.1%}",
            ])
        return rows

    # ------------------------------------------------------------------
    def render(self) -> str:
        config = self.h3.config
        parts = [
            f"HTTP/3 rollout report — h3 profile '{self.profile_name}' vs. "
            f"h2 baseline (seed={config.seed}, n_sites={config.n_sites})",
            "",
            "Protocol split per dataset (connection counts)",
            align_table(
                self.protocol_rows(),
                header=["Dataset", "h2 base", "h2 h3run", "h3 h3run",
                        "h3 share"],
            ),
            "",
            "Reuse impact per dataset (redundant connections)",
            align_table(
                self.reuse_rows(),
                header=["Dataset", "red base", "red h3", "share base",
                        "share h3", "delta"],
            ),
            "",
            "Attribution by protocol (h3 run, redundant connections by cause)",
        ]
        causes = self.cause_rows()
        if causes:
            parts.append(align_table(
                causes, header=["Dataset", "Protocol", "Cause", "Count"]
            ))
        else:
            parts.append("  (no redundant connections attributed)")
        parts += [
            "",
            "Coalescing potential (what-if: perfect coalescing, Alexa "
            "common sites)",
            align_table(
                self.whatif_rows(),
                header=["Run", "Sites", "Conns saved", "Setup saved",
                        "Total saved", "Rel. saving"],
            ),
        ]
        parts += coverage_caveats(
            [("baseline", self.baseline), ("h3", self.h3)]
        )
        return "\n".join(parts)


def h3_report(baseline: Study, h3: Study) -> H3Result:
    """Diff the ``h3`` study against its h2-only ``baseline``.

    ``baseline`` must be the same configuration with
    ``h3_profile="none"``; anything else would attribute ordinary
    configuration drift to the rollout.
    """
    check_baseline_pair(
        baseline, h3, "h3_profile", label="h3", cause="rollout"
    )
    return H3Result(baseline=baseline, h3=h3)
