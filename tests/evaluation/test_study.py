"""Tests for the end-to-end study pipeline (on the shared smoke run)."""

import numpy as np
import pytest

from repro.evaluation.study import (
    APPROACH_IF_NO_UF,
    APPROACH_NAIVE,
    APPROACH_OPPORTUNE,
    APPROACH_STATELESS,
    APPROACH_TAUW,
    APPROACH_WORST_CASE,
    StudyConfig,
    evaluate_study,
)
from repro.exceptions import ValidationError


@pytest.fixture(scope="module")
def results(smoke_study_data):
    return evaluate_study(smoke_study_data)


class TestStudyConfig:
    def test_defaults_valid(self):
        StudyConfig()

    def test_paper_scale_counts(self):
        cfg = StudyConfig.paper_scale()
        assert cfg.n_series == 1307
        assert cfg.eval_settings_per_series == 28
        assert cfg.subsample_length == 10
        assert cfg.min_calibration_samples == 200
        assert cfg.confidence == 0.999
        assert cfg.tree_max_depth == 8

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            StudyConfig(n_series=5)
        with pytest.raises(ValidationError):
            StudyConfig(eval_settings_per_series=0)
        with pytest.raises(ValidationError):
            StudyConfig(subsample_length=0)
        with pytest.raises(ValidationError):
            StudyConfig(ddm_kind="cnn")


class TestStudyData(object):
    def test_split_sizes(self, smoke_study_data):
        cfg = smoke_study_data.config
        n_eval = round(0.3 * cfg.n_series) * cfg.eval_settings_per_series
        assert len(smoke_study_data.test_traces) == n_eval
        assert len(smoke_study_data.calibration_traces) == n_eval

    def test_eval_traces_subsampled(self, smoke_study_data):
        max_len = smoke_study_data.config.subsample_length
        assert all(
            t.n_steps <= max_len for t in smoke_study_data.test_traces
        )

    def test_train_traces_full_length(self, smoke_study_data):
        lengths = {t.n_steps for t in smoke_study_data.train_traces}
        assert max(lengths) >= 29

    def test_models_calibrated(self, smoke_study_data):
        assert smoke_study_data.stateless_qim.is_calibrated
        assert smoke_study_data.ta_qim.is_calibrated

    def test_ddm_learned_something(self, smoke_study_data):
        assert smoke_study_data.ddm_accuracy_train > 0.7
        assert smoke_study_data.ddm_accuracy_test > 0.5

    def test_layout_columns(self, smoke_study_data):
        layout = smoke_study_data.layout
        assert layout.n_features == 10 + 4
        assert layout.taqf_names == ("ratio", "length", "size", "certainty")


class TestStudyResults:
    def test_all_six_approaches_present(self, results):
        names = [a.name for a in results.approaches]
        assert names == [
            APPROACH_STATELESS,
            APPROACH_IF_NO_UF,
            APPROACH_NAIVE,
            APPROACH_WORST_CASE,
            APPROACH_OPPORTUNE,
            APPROACH_TAUW,
        ]

    def test_approach_lookup(self, results):
        assert results.approach(APPROACH_TAUW).name == APPROACH_TAUW
        with pytest.raises(ValidationError):
            results.approach("nonexistent")

    def test_variance_identical_across_fused_approaches(self, results):
        # Variance depends only on the outcome process, so all approaches
        # scored against the fused outcomes share it exactly.
        fused = [
            a for a in results.approaches if a.name != APPROACH_STATELESS
        ]
        variances = {round(a.decomposition.variance, 12) for a in fused}
        assert len(variances) == 1

    def test_fusion_reduces_variance(self, results):
        # IF improves accuracy, so the outcome variance must drop.
        stateless = results.approach(APPROACH_STATELESS).decomposition.variance
        fused = results.approach(APPROACH_IF_NO_UF).decomposition.variance
        assert fused < stateless

    def test_decompositions_exact(self, results):
        for approach in results.approaches:
            assert abs(approach.decomposition.identity_residual()) < 1e-10

    def test_uncertainties_aligned_with_cases(self, results):
        n = results.approaches[0].uncertainties.size
        for approach in results.approaches:
            assert approach.uncertainties.size == n
            assert approach.wrong.size == n

    def test_naive_most_overconfident(self, results):
        # The core qualitative claim about eq. (1): dependent errors break
        # the independence assumption.
        naive = results.approach(APPROACH_NAIVE).decomposition.overconfidence
        for name in (APPROACH_WORST_CASE, APPROACH_TAUW):
            assert naive >= results.approach(name).decomposition.overconfidence

    def test_worst_case_least_overconfident_of_uf(self, results):
        worst = results.approach(APPROACH_WORST_CASE).decomposition
        naive = results.approach(APPROACH_NAIVE).decomposition
        opportune = results.approach(APPROACH_OPPORTUNE).decomposition
        assert worst.overconfidence <= naive.overconfidence
        assert worst.overconfidence <= opportune.overconfidence + 1e-12

    def test_fusion_improves_misclassification(self, results):
        m = results.misclassification
        assert m.fused_mean <= m.isolated_mean
        assert m.fused_final <= m.fused[2]

    def test_first_two_steps_coincide(self, results):
        # Majority vote with most-recent tie-breaking equals the isolated
        # prediction for series prefixes of length 1 and 2.
        m = results.misclassification
        assert m.isolated[0] == m.fused[0]
        assert m.isolated[1] == m.fused[1]

    def test_distribution_summaries(self, results):
        for key in ("stateless", "taUW"):
            dist = results.distributions[key]
            assert 0.0 < dist.min_guaranteed < 1.0
            assert 0.0 <= dist.share_at_min <= 1.0
            counts, edges = dist.histogram(bins=10)
            assert counts.sum() == dist.uncertainties.size

    def test_calibration_curves_for_all_approaches(self, results):
        curves = results.calibration_curves()
        assert set(curves) == {a.name for a in results.approaches}
        for curve in curves.values():
            assert len(curve) >= 1


class TestReproducibility:
    def test_same_seed_same_results(self):
        # Two cold builds: the on-disk cache must not make this vacuous.
        from repro.evaluation.study import _build_study_data

        data1 = _build_study_data(StudyConfig.smoke_scale())
        data2 = _build_study_data(StudyConfig.smoke_scale())
        assert data2.ddm_accuracy_test == data1.ddm_accuracy_test
        r1 = evaluate_study(data1)
        r2 = evaluate_study(data2)
        for a1, a2 in zip(r1.approaches, r2.approaches):
            assert a1.decomposition.brier == pytest.approx(a2.decomposition.brier)
