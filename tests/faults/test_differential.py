"""The differential resilience invariants.

Two families of guarantees:

1. **Determinism under perturbation** — for every named fault profile,
   serial, thread and process executors must produce byte-identical
   ``study_digest``s: fault plans derive from ``(seed, run, domain)``
   exactly like the crawl RNG streams, so scheduling must not leak in.
2. **Inertness of the empty plan** — ``fault_profile="none"`` compiles
   to no plan at all; the pinned golden digest (captured before the
   fault machinery existed) must reproduce exactly, and the canonical
   faulted study must match its own pinned digest so the resilience
   numbers are regression-locked like Table 1.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.digest import study_digest
from repro.analysis.study import Study, StudyConfig
from repro.runtime import ProcessExecutor, ThreadExecutor

pytestmark = pytest.mark.slow

_GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Every named (non-empty) profile the acceptance criteria call out.
PROFILES = ("flaky-dns", "broken-tls", "h2-churn", "slow-origin")

#: Differential scale: small enough to afford 3 executors x 4 profiles,
#: large enough that every fault kind strikes at least once.
_SCALE = dict(n_sites=40, dns_study_days=0.25)


def _config(profile: str) -> StudyConfig:
    return StudyConfig(seed=7, fault_profile=profile, **_SCALE)


@pytest.fixture(scope="module")
def serial_studies() -> dict[str, Study]:
    """One serial study per profile (plus the fault-free baseline)."""
    return {
        profile: Study.run(_config(profile))
        for profile in ("none",) + PROFILES
    }


class TestExecutorIndependence:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_thread_executor_matches_serial(self, serial_studies, profile):
        with ThreadExecutor(4) as executor:
            threaded = Study.run(_config(profile), executor=executor)
        assert study_digest(threaded) == study_digest(
            serial_studies[profile]
        ), profile

    @pytest.mark.parametrize("profile", PROFILES)
    def test_process_executor_matches_serial(self, serial_studies, profile):
        with ProcessExecutor(2) as executor:
            processed = Study.run(_config(profile), executor=executor)
        assert study_digest(processed) == study_digest(
            serial_studies[profile]
        ), profile

    def test_fault_counts_executor_independent(self, serial_studies):
        # Not just the datasets: the fired-fault taxonomy must be
        # identical too, or resilience reports would depend on the
        # execution substrate.
        with ProcessExecutor(2) as executor:
            processed = Study.run(_config("flaky-dns"), executor=executor)
        assert processed.fault_counts() == (
            serial_studies["flaky-dns"].fault_counts()
        )


class TestProfilesPerturb:
    def test_every_profile_diverges_from_baseline(self, serial_studies):
        baseline = study_digest(serial_studies["none"])
        for profile in PROFILES:
            assert study_digest(serial_studies[profile]) != baseline, profile

    def test_profiles_pairwise_distinct(self, serial_studies):
        digests = {
            profile: study_digest(serial_studies[profile])
            for profile in PROFILES
        }
        assert len(set(digests.values())) == len(digests), digests

    def test_fault_kinds_strike_within_their_layer(self, serial_studies):
        from repro.faults import FAULTS

        for profile in PROFILES:
            counts = serial_studies[profile].fault_counts()
            assert counts, f"profile {profile} never fired"
            allowed = {kind.value for kind in FAULTS.lookup(profile).kinds}
            assert set(counts) <= allowed, (profile, counts)

    def test_baseline_reports_no_faults(self, serial_studies):
        assert serial_studies["none"].fault_counts() == {}


class TestPinnedGoldens:
    def test_empty_plan_reproduces_pinned_golden_digest(self, golden_study):
        """Fault machinery off => zero behavioural drift.

        ``digest.txt`` was captured before the fault subsystem existed;
        a study run through the fully fault-wired stack with the empty
        plan must still hash to it, byte for byte.
        """
        pinned = (_GOLDEN_DIR / "digest.txt").read_text().strip()
        assert golden_study.config.fault_profile == "none"
        assert study_digest(golden_study) == pinned

    def test_faulted_golden_digest_pinned(self, faulted_golden_study):
        pinned = (_GOLDEN_DIR / "faulted_digest.txt").read_text().strip()
        assert study_digest(faulted_golden_study) == pinned

    def test_faulted_golden_differs_from_clean(self, golden_study,
                                               faulted_golden_study):
        assert study_digest(faulted_golden_study) != study_digest(
            golden_study
        )

    def test_faulted_golden_strikes_every_layer(self, faulted_golden_study):
        counts = faulted_golden_study.fault_counts()
        layers = {kind.split("-")[0] for kind in counts}
        assert {"dns", "tls", "h2", "srv"} <= layers, counts
