"""Analysis layer: the study driver plus every table/figure renderer."""

from repro.analysis.ablation import (
    MitigationComparison,
    MitigationOutcome,
    compare_mitigations,
)
from repro.analysis.digest import dataset_digest, study_digest
from repro.analysis.figures import Figure2Result, Figure3Result, figure2, figure3
from repro.analysis.h3 import H3Result, h3_report
from repro.analysis.headline import HeadlineStats, headline
from repro.analysis.longitudinal import LongitudinalResult, longitudinal_report
from repro.analysis.resilience import ResilienceResult, resilience_report
from repro.analysis.robustness import robustness_report
from repro.analysis.study import DATASET_LABELS, Study, StudyConfig
from repro.analysis.tables import (
    ALL_TABLES,
    TableResult,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
    table10,
    table11,
    table12,
)

__all__ = [
    "MitigationComparison",
    "MitigationOutcome",
    "compare_mitigations",
    "dataset_digest",
    "study_digest",
    "Figure2Result",
    "Figure3Result",
    "figure2",
    "figure3",
    "H3Result",
    "h3_report",
    "HeadlineStats",
    "headline",
    "LongitudinalResult",
    "longitudinal_report",
    "ResilienceResult",
    "resilience_report",
    "robustness_report",
    "DATASET_LABELS",
    "Study",
    "StudyConfig",
    "ALL_TABLES",
    "TableResult",
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "table9",
    "table10",
    "table11",
    "table12",
]
