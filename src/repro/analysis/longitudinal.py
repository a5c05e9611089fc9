"""Longitudinal analysis: one scenario measured across churn epochs.

The evolution engine (:mod:`repro.evolve`) advances the synthetic
ecosystem through epochs of certificate rotation, DNS churn, CDN
migration or shard consolidation; this module quantifies what that
churn does to the paper's observables over time:

* **reuse trajectory** — per dataset and epoch: HTTP/2 connection
  counts, redundant connections, the redundant share and its
  percentage-point delta against epoch 0;
* **attribution drift** — the Table-1 cause split (CERT / IP / CRED)
  per epoch, because e.g. SAN merges move redundancy out of cause CERT
  while pool reshuffles move cause IP;
* **reuse-opportunity half-life** — per dataset, the (interpolated)
  epoch at which redundant connections fall to half their epoch-0
  count: the decay constant of the paper's headline phenomenon under
  e.g. shard consolidation;
* **churn ledger** — every mutation the engine applied, per epoch.

Every epoch's study shares the seed, site list and crawl schedule, so
the deltas are attributable to ecosystem churn alone (the runner,
:func:`repro.evolve.run_longitudinal`, enforces this by construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.study import StudyConfig
from repro.core.causes import Cause
from repro.util.formatting import align_table, pp_delta

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.runner import CellResult

__all__ = ["LongitudinalResult", "half_life", "longitudinal_report"]


def half_life(values: list[float]) -> float | None:
    """The interpolated index where ``values`` first halves, or ``None``.

    ``values[0]`` is the epoch-0 level; the half-life is the first
    (linearly interpolated) epoch at which the series reaches half of
    it.  ``None`` means the series never decayed that far — including
    trajectories that grow.
    """
    if not values or values[0] <= 0:
        return None
    target = values[0] / 2.0
    for index in range(1, len(values)):
        if values[index] <= target:
            previous, current = values[index - 1], values[index]
            if previous == current:
                return float(index)
            return (index - 1) + (previous - target) / (previous - current)
    return None


@dataclass(frozen=True)
class LongitudinalResult:
    """The rendered-ready epoch sequence of one evolution scenario."""

    policy: str
    config: StudyConfig
    #: One sweep cell per epoch, epoch-0 first.
    cells: tuple["CellResult", ...]

    @property
    def epochs(self) -> list[int]:
        return [result.cell.config.epochs for result in self.cells]

    def digests(self) -> list[tuple[int, str]]:
        return list(zip(self.epochs, (cell.digest for cell in self.cells)))

    def shared_datasets(self) -> list[str]:
        """Dataset keys present at every epoch, epoch-0 order."""
        if not self.cells:
            return []
        names = list(self.cells[0].datasets)
        for cell in self.cells[1:]:
            names = [n for n in names if n in cell.datasets]
        return names

    # ------------------------------------------------------------------
    def reuse_rows(self) -> list[list[str]]:
        rows = []
        for name in self.shared_datasets():
            shares = []
            for epoch, cell in zip(self.epochs, self.cells):
                summary = cell.datasets[name]
                shares.append(
                    summary.redundant_connections / summary.h2_connections
                    if summary.h2_connections else 0.0
                )
                rows.append([
                    name,
                    str(epoch),
                    str(summary.h2_connections),
                    str(summary.redundant_connections),
                    f"{shares[-1]:.1%}",
                    pp_delta(shares[-1] - shares[0]),
                ])
        return rows

    def drift_rows(self) -> list[list[str]]:
        """CERT/IP/CRED connection counts, one column per epoch."""
        rows = []
        for name in self.shared_datasets():
            for cause in (Cause.CERT, Cause.IP, Cause.CRED):
                counts = [
                    cell.datasets[name].cause_connections[cause.value]
                    for cell in self.cells
                ]
                if not any(counts):
                    continue
                rows.append([name, cause.value] + [str(n) for n in counts])
        return rows

    def half_life_rows(self) -> list[list[str]]:
        rows = []
        horizon = self.epochs[-1] if self.cells else 0
        for name in self.shared_datasets():
            series = [
                float(cell.datasets[name].redundant_connections)
                for cell in self.cells
            ]
            life = half_life(series)
            rows.append([
                name,
                str(int(series[0])),
                str(int(series[-1])),
                f"{life:.1f} epochs" if life is not None
                else f"> {horizon} epochs",
            ])
        return rows

    def churn_rows(self) -> list[list[str]]:
        rows = []
        for epoch, cell in zip(self.epochs, self.cells):
            if epoch == 0:
                continue
            applied = ", ".join(
                f"{kind}={count}" for kind, count in cell.churn
            )
            rows.append([str(epoch), applied or "(nothing fired)"])
        return rows

    # ------------------------------------------------------------------
    def render(self) -> str:
        config = self.config
        epoch_headers = [f"e{epoch}" for epoch in self.epochs]
        parts = [
            f"Longitudinal report — policy '{self.policy}' over "
            f"{self.epochs[-1]} epochs "
            f"(seed={config.seed}, n_sites={config.n_sites})",
            "",
            "Reuse trajectory per dataset",
            align_table(
                self.reuse_rows(),
                header=["Dataset", "Epoch", "h2", "Redundant", "Share",
                        "vs e0"],
            ),
            "",
            "Attribution drift (redundant connections by cause)",
            align_table(
                self.drift_rows(),
                header=["Dataset", "Cause"] + epoch_headers,
            ),
            "",
            "Reuse-opportunity half-life (redundant connections)",
            align_table(
                self.half_life_rows(),
                header=["Dataset", "e0", f"e{self.epochs[-1]}",
                        "Half-life"],
            ),
            "",
            "Churn ledger (mutations applied per epoch)",
        ]
        ledger = self.churn_rows()
        if ledger:
            parts.append(align_table(ledger, header=["Epoch", "Applied"]))
        else:
            parts.append("  (no churn epochs)")
        return "\n".join(parts)


def longitudinal_report(result: LongitudinalResult) -> LongitudinalResult:
    """Return ``result`` after checking its cells cover epochs ``0..N``.

    Mirrors ``resilience_report``'s shape, so call sites read uniformly
    (``print(longitudinal_report(result).render())``).
    """
    epochs = result.epochs
    if epochs != list(range(len(epochs))):
        raise ValueError(
            f"longitudinal cells must cover epochs 0..N without gaps, "
            f"got {epochs}"
        )
    return result
