"""repro — reproduction of "Sharding and HTTP/2 Connection Reuse Revisited"
(Sander, Blöcher, Wehrle, Rüth — IMC '21).

Quickstart::

    from repro import Study, StudyConfig, table1, headline

    study = Study.run(StudyConfig(n_sites=400))
    print(table1(study).render())
    print(headline(study).render())

The public surface re-exports the layers a downstream user needs:

* :mod:`repro.web` — the synthetic web ecosystem (the substitute for
  the live web the paper measured);
* :mod:`repro.browser` — the Chromium-like browser model whose
  connection decisions the study measures;
* :mod:`repro.core` — the Connection Reuse predicate and the §4.1
  redundancy classifier (the paper's core contribution);
* :mod:`repro.crawl` — the HTTP Archive and Alexa measurement
  harnesses;
* :mod:`repro.runtime` — the pluggable serial/thread/process execution
  substrate the crawl and classification stages map over;
* :mod:`repro.evolve` — temporal ecosystem evolution (churn policies,
  epoch plans, the longitudinal runner);
* :mod:`repro.analysis` — the study driver plus renderers for every
  table and figure of the paper.

See README.md for the quickstart and the runtime/parallelism knobs.
"""

from repro.analysis.internal import (
    InternalPagesComparison,
    compare_landing_vs_internal,
)
from repro.analysis.report import generate_report, write_report
from repro.analysis.validation import Scorecard, validate_study
from repro.analysis import (
    ALL_TABLES,
    Figure2Result,
    Figure3Result,
    HeadlineStats,
    MitigationComparison,
    Study,
    StudyConfig,
    TableResult,
    compare_mitigations,
    figure2,
    figure3,
    headline,
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
    study_digest,
)
from repro.browser import BrowserConfig, ChromiumBrowser, ConnectionPool, Visit
from repro.runtime import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    StageTimings,
    ThreadExecutor,
    make_executor,
)
from repro.core import (
    Cause,
    CorpusReport,
    LifetimeModel,
    SessionRecord,
    SiteClassification,
    classify_site,
    could_reuse,
    records_from_visit,
)
from repro.crawl import AlexaCrawler, AlexaVariant, HttpArchiveCrawler
from repro.dnsstudy import DnsLoadBalancingStudy
from repro.evolve import run_longitudinal
from repro.perf import (
    CorpusImpact,
    PathModel,
    SlowStartModel,
    WhatIfResult,
    corpus_impact,
    whatif_site,
)
from repro.web import Ecosystem, EcosystemConfig

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # analysis
    "ALL_TABLES", "Figure2Result", "Figure3Result", "HeadlineStats",
    "MitigationComparison", "Study", "StudyConfig", "TableResult",
    "compare_mitigations", "figure2", "figure3", "headline",
    "table1", "table2", "table3", "table4", "table5", "table6",
    "table7", "table8", "table9", "table10", "table11", "table12",
    # browser
    "BrowserConfig", "ChromiumBrowser", "ConnectionPool", "Visit",
    # core
    "Cause", "CorpusReport", "LifetimeModel", "SessionRecord",
    "SiteClassification", "classify_site", "could_reuse",
    "records_from_visit",
    # crawl / dns study / web / evolution
    "AlexaCrawler", "AlexaVariant", "HttpArchiveCrawler",
    "DnsLoadBalancingStudy",
    "Ecosystem", "EcosystemConfig", "run_longitudinal",
    # runtime
    "Executor", "SerialExecutor", "ThreadExecutor", "ProcessExecutor",
    "StageTimings", "make_executor", "study_digest",
    # extensions
    "InternalPagesComparison", "compare_landing_vs_internal",
    "generate_report", "write_report", "Scorecard", "validate_study",
    "CorpusImpact", "PathModel", "SlowStartModel", "WhatIfResult",
    "corpus_impact", "whatif_site",
]
