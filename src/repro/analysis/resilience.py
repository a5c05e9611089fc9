"""Faulted-vs-baseline resilience comparison.

The fault-injection engine (:mod:`repro.faults`) perturbs the network
under a study; this report quantifies what the perturbation did to the
paper's observables.  It diffs two studies of the *same* configuration
— one under ``fault_profile="none"``, one under a named profile — along
three axes:

* **reuse impact** — per dataset: HTTP/2 connection counts, redundant
  connections and the redundant shares, baseline vs. faulted, with the
  percentage-point delta (does flaky infrastructure create or destroy
  reuse opportunities?);
* **attribution shifts** — the Table-1 cause split (CERT / IP / CRED)
  under both runs, because e.g. narrowed DNS answers move redundancy
  out of cause IP while broken TLS removes whole coalescing candidates;
* **failure taxonomy** — every injected fault kind with its strike
  count, plus the crawl-level reachability deltas the strikes caused.

Both studies must share seed and scale; the report refuses apples-to-
oranges inputs instead of rendering misleading deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.baseline import check_baseline_pair, coverage_caveats
from repro.analysis.study import Study
from repro.core.causes import Cause
from repro.util.formatting import align_table, pp_delta

__all__ = ["ResilienceResult", "resilience_report"]


@dataclass(frozen=True)
class ResilienceResult:
    """The rendered-ready diff of one faulted study against baseline."""

    baseline: Study
    faulted: Study

    @property
    def profile_name(self) -> str:
        return self.faulted.config.fault_profile

    # ------------------------------------------------------------------
    def shared_datasets(self) -> list[str]:
        """Dataset keys present in both studies, baseline order."""
        return [
            name for name in self.baseline.datasets
            if name in self.faulted.datasets
        ]

    def reuse_rows(self) -> list[list[str]]:
        rows = []
        for name in self.shared_datasets():
            base = self.baseline.datasets[name].report
            fault = self.faulted.datasets[name].report
            base_share = (
                base.redundant_connections / base.h2_connections
                if base.h2_connections else 0.0
            )
            fault_share = (
                fault.redundant_connections / fault.h2_connections
                if fault.h2_connections else 0.0
            )
            rows.append([
                name,
                str(base.h2_connections),
                str(fault.h2_connections),
                str(base.redundant_connections),
                str(fault.redundant_connections),
                f"{base_share:.1%}",
                f"{fault_share:.1%}",
                pp_delta(fault_share - base_share),
            ])
        return rows

    def attribution_rows(self) -> list[list[str]]:
        rows = []
        for name in self.shared_datasets():
            base = self.baseline.datasets[name].report
            fault = self.faulted.datasets[name].report
            for cause in (Cause.CERT, Cause.IP, Cause.CRED):
                before = base.by_cause[cause].connections
                after = fault.by_cause[cause].connections
                if before == 0 and after == 0:
                    continue
                rows.append([
                    name, cause.value, str(before), str(after),
                    f"{after - before:+d}",
                ])
        return rows

    def taxonomy_rows(self) -> list[list[str]]:
        counts = self.faulted.fault_counts()
        return [
            [kind, str(count)] for kind, count in sorted(counts.items())
        ]

    def reachability_rows(self) -> list[list[str]]:
        rows = [[
            "HTTP Archive unreachable",
            str(len(self.baseline.har_corpus.unreachable)),
            str(len(self.faulted.har_corpus.unreachable)),
        ]]
        for attribute, label in (
            ("alexa_run", "Alexa (fetch) unreachable"),
            ("alexa_nofetch_run", "Alexa (nofetch) unreachable"),
        ):
            base_run = getattr(self.baseline, attribute)
            fault_run = getattr(self.faulted, attribute)
            if base_run is None or fault_run is None:
                continue
            rows.append([
                label,
                str(base_run.unreachable_count),
                str(fault_run.unreachable_count),
            ])
        rows.append([
            "Alexa common sites",
            str(len(self.baseline.alexa_common_sites)),
            str(len(self.faulted.alexa_common_sites)),
        ])
        return rows

    # ------------------------------------------------------------------
    def render(self) -> str:
        config = self.faulted.config
        parts = [
            f"Resilience report — fault profile '{self.profile_name}' vs. "
            f"baseline (seed={config.seed}, n_sites={config.n_sites})",
            "",
            "Reuse impact per dataset",
            align_table(
                self.reuse_rows(),
                header=["Dataset", "h2 base", "h2 fault", "red base",
                        "red fault", "share base", "share fault", "delta"],
            ),
            "",
            "Attribution shifts (redundant connections by cause)",
            align_table(
                self.attribution_rows(),
                header=["Dataset", "Cause", "Base", "Fault", "Delta"],
            ),
            "",
            "Failure taxonomy (injected fault strikes)",
        ]
        taxonomy = self.taxonomy_rows()
        if taxonomy:
            parts.append(
                align_table(taxonomy, header=["Fault kind", "Strikes"])
            )
        else:
            parts.append("  (the fault plan never fired)")
        parts += [
            "",
            "Reachability",
            align_table(
                self.reachability_rows(),
                header=["Metric", "Baseline", "Faulted"],
            ),
        ]
        parts += coverage_caveats(
            [("baseline", self.baseline), ("faulted", self.faulted)]
        )
        return "\n".join(parts)


def resilience_report(baseline: Study, faulted: Study) -> ResilienceResult:
    """Diff ``faulted`` against ``baseline``.

    ``baseline`` must be the same configuration with
    ``fault_profile="none"``; anything else would attribute ordinary
    configuration drift to the fault engine.
    """
    check_baseline_pair(
        baseline, faulted, "fault_profile", label="faulted", cause="faults"
    )
    return ResilienceResult(baseline=baseline, faulted=faulted)
