"""Tests for the study driver and the mitigation ablations."""

from __future__ import annotations

import pytest

from repro.analysis.ablation import compare_mitigations
from repro.analysis.study import DATASET_LABELS, StudyConfig
from repro.core.causes import Cause


class TestStudy:
    def test_all_datasets_built(self, small_study):
        assert set(small_study.datasets) == set(DATASET_LABELS)

    def test_alexa_common_sites_reachable_in_both(self, small_study):
        for domain in small_study.alexa_common_sites:
            assert not small_study.alexa_run.measurements[domain].unreachable
            assert not small_study.alexa_nofetch_run.measurements[
                domain
            ].unreachable

    def test_alexa_datasets_share_site_set(self, small_study):
        alexa = small_study.dataset("alexa")
        nofetch = small_study.dataset("alexa-nofetch")
        assert set(alexa.classifications) == set(nofetch.classifications)

    def test_overlap_is_intersection(self, small_study):
        har = set(small_study.dataset("har-endless").classifications)
        alexa = set(small_study.dataset("alexa-endless").classifications)
        overlap = set(small_study.dataset("har-overlap").classifications)
        assert overlap == har & alexa

    def test_endless_bounds_actual(self, small_study):
        endless = small_study.dataset("alexa-endless").report
        actual = small_study.dataset("alexa").report
        assert endless.redundant_connections >= actual.redundant_connections

    def test_small_config_helper(self):
        config = StudyConfig(n_sites=5000).small()
        assert config.n_sites == 200

    def test_lifetimes_populated(self, small_study):
        lifetimes = small_study.connection_lifetimes()
        assert lifetimes
        assert all(lifetime >= 0 for lifetime in lifetimes)


@pytest.fixture(scope="module")
def mitigation_comparison():
    return compare_mitigations(seed=7, n_sites=120, top=60)


class TestMitigations:
    def test_no_fetch_removes_cred(self, mitigation_comparison):
        outcome = mitigation_comparison.outcomes["no-fetch-credentials"]
        assert outcome.report.by_cause[Cause.CRED].connections == 0
        assert mitigation_comparison.reduction("no-fetch-credentials") > 0

    def test_coordinated_dns_cuts_ip(self, mitigation_comparison):
        baseline = mitigation_comparison.baseline.report
        outcome = mitigation_comparison.outcomes["coordinated-dns"].report
        assert outcome.by_cause[Cause.IP].connections < (
            baseline.by_cause[Cause.IP].connections
        )
        assert mitigation_comparison.reduction("coordinated-dns") > 0

    def test_merged_certificates_cut_cert(self, mitigation_comparison):
        baseline = mitigation_comparison.baseline.report
        outcome = mitigation_comparison.outcomes["merged-certificates"].report
        assert outcome.by_cause[Cause.CERT].connections < max(
            1, baseline.by_cause[Cause.CERT].connections
        )

    def test_origin_frames_reduce_redundancy(self, mitigation_comparison):
        assert mitigation_comparison.reduction("origin-frames") > 0

    def test_every_mitigation_helps(self, mitigation_comparison):
        for name in mitigation_comparison.outcomes:
            assert mitigation_comparison.reduction(name) >= 0, name

    def test_render(self, mitigation_comparison):
        text = mitigation_comparison.render()
        assert "baseline" in text
        assert "coordinated-dns" in text
