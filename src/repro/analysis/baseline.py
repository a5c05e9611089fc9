"""What the scenario-vs-baseline reports share.

:mod:`repro.analysis.resilience` and :mod:`repro.analysis.h3` each diff
a study against the same configuration with one scenario axis reset to
``"none"``.  Both refuse pairs that differ beyond that axis, and both
call out runs whose quarantined shards would bias every delta.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.study import Study

__all__ = ["check_baseline_pair", "coverage_caveats"]


def check_baseline_pair(
    baseline: Study, scenario: Study, axis: str, *, label: str, cause: str
) -> None:
    """Raise ``ValueError`` unless ``baseline`` is ``scenario`` at ``axis="none"``.

    ``label`` names the scenario run and ``cause`` what its deltas are
    attributed to, in the error texts.
    """
    value = getattr(baseline.config, axis)
    if value != "none":
        raise ValueError(
            f"baseline study runs {axis.replace('_', ' ')} {value!r}, "
            f"expected 'none'"
        )
    if replace(baseline.config, **{axis: "none"}) != replace(
        scenario.config, **{axis: "none"}
    ):
        raise ValueError(
            f"baseline and {label} studies differ beyond {axis}; "
            f"their deltas would not be attributable to the {cause}"
        )


def coverage_caveats(runs: list[tuple[str, Study]]) -> list[str]:
    """Report lines for each ``(label, study)`` run of partial coverage.

    Degraded coverage (quarantined shards) would silently bias every
    delta of a report, so a partial run is called out explicitly.
    """
    lines: list[str] = []
    for label, study in runs:
        coverage = study.coverage
        if coverage is not None and not coverage.complete:
            lines += [
                "",
                f"Coverage caveat: {label} run is {coverage.describe()}",
            ]
    return lines
