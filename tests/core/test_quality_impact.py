"""Tests for the quality impact model (tree + calibration + guarantees)."""

import numpy as np
import pytest

from repro.core.quality_impact import BOUND_FUNCTIONS, QualityImpactModel
from repro.exceptions import NotCalibratedError, NotFittedError, ValidationError
from repro.stats.binomial import clopper_pearson_upper


def make_data(rng, n=4000):
    """One informative quality factor: failure probability rises with it."""
    X = rng.uniform(size=(n, 3))
    p_fail = np.where(X[:, 0] > 0.7, 0.4, 0.02)
    wrong = (rng.uniform(size=n) < p_fail).astype(int)
    return X, wrong


@pytest.fixture
def calibrated(rng):
    X_train, wrong_train = make_data(rng)
    X_cal, wrong_cal = make_data(rng)
    qim = QualityImpactModel(max_depth=4, min_calibration_samples=100)
    qim.fit(X_train, wrong_train).calibrate(X_cal, wrong_cal)
    return qim


class TestLifecycle:
    def test_estimate_before_fit_raises(self):
        with pytest.raises(NotCalibratedError):
            QualityImpactModel().estimate_uncertainty([[0.5, 0.5, 0.5]])

    def test_calibrate_before_fit_raises(self, rng):
        X, wrong = make_data(rng, 500)
        with pytest.raises(NotFittedError):
            QualityImpactModel().calibrate(X, wrong)

    def test_estimate_after_fit_but_before_calibrate_raises(self, rng):
        X, wrong = make_data(rng, 500)
        qim = QualityImpactModel().fit(X, wrong)
        with pytest.raises(NotCalibratedError):
            qim.estimate_uncertainty(X)
        assert not qim.is_calibrated

    def test_refit_invalidates_calibration(self, rng, calibrated):
        X, wrong = make_data(rng, 500)
        calibrated.fit(X, wrong)
        with pytest.raises(NotCalibratedError):
            calibrated.estimate_uncertainty(X)


class TestEstimates:
    def test_separates_risky_region(self, rng, calibrated):
        X, _ = make_data(rng, 2000)
        u = calibrated.estimate_uncertainty(X)
        risky = X[:, 0] > 0.75
        assert u[risky].mean() > u[~risky].mean() + 0.1

    def test_bound_dominates_point_estimate(self, rng, calibrated):
        X, _ = make_data(rng, 1000)
        assert np.all(
            calibrated.estimate_uncertainty(X) >= calibrated.point_uncertainty(X)
        )

    def test_guarantee_holds_on_fresh_data(self, rng, calibrated):
        # The per-leaf bound at 0.999 confidence should rarely be exceeded
        # by the error rate observed on fresh data from the same process.
        X, wrong = make_data(rng, 4000)
        u = calibrated.estimate_uncertainty(X)
        leaves = calibrated.leaf_assignments(X)
        for leaf in np.unique(leaves):
            mask = leaves == leaf
            if mask.sum() < 200:
                continue
            observed = wrong[mask].mean()
            assert observed <= u[mask][0] + 0.05

    def test_estimates_are_leaf_constant(self, rng, calibrated):
        X, _ = make_data(rng, 1000)
        u = calibrated.estimate_uncertainty(X)
        leaves = calibrated.leaf_assignments(X)
        for leaf in np.unique(leaves):
            assert len(np.unique(u[leaves == leaf])) == 1

    def test_min_guaranteed_uncertainty_positive(self, calibrated):
        assert 0.0 < calibrated.min_guaranteed_uncertainty < 1.0

    def test_bound_matches_clopper_pearson(self, rng):
        X_train, wrong_train = make_data(rng)
        qim = QualityImpactModel(max_depth=1, min_calibration_samples=1)
        # Single-leaf tree: the bound must equal CP over the whole set.
        qim.fit(X_train, np.zeros(len(X_train), dtype=int))
        X_cal, wrong_cal = make_data(rng, 1000)
        qim.calibrate(X_cal, wrong_cal)
        expected = clopper_pearson_upper(wrong_cal.sum(), 1000, 0.999)
        u = qim.estimate_uncertainty(X_cal[:5])
        assert np.allclose(u, expected)


class TestCalibration:
    def test_leaves_meet_min_samples(self, rng):
        X_train, wrong_train = make_data(rng)
        X_cal, wrong_cal = make_data(rng, 2000)
        qim = QualityImpactModel(max_depth=8, min_calibration_samples=300)
        qim.fit(X_train, wrong_train).calibrate(X_cal, wrong_cal)
        for row in qim.leaf_table():
            assert row["calibration_samples"] >= 300

    def test_leaf_table_sorted_by_bound(self, calibrated):
        bounds = [row["guaranteed_uncertainty"] for row in calibrated.leaf_table()]
        assert bounds == sorted(bounds)

    def test_leaf_table_counts_sum_to_calibration_size(self, rng):
        X_train, wrong_train = make_data(rng)
        X_cal, wrong_cal = make_data(rng, 1500)
        qim = QualityImpactModel(max_depth=4, min_calibration_samples=100)
        qim.fit(X_train, wrong_train).calibrate(X_cal, wrong_cal)
        total = sum(r["calibration_samples"] for r in qim.leaf_table())
        assert total == 1500

    def test_n_leaves(self, calibrated):
        assert calibrated.n_leaves >= 2

    def test_misaligned_calibration_rejected(self, rng):
        X, wrong = make_data(rng, 500)
        qim = QualityImpactModel().fit(X, wrong)
        with pytest.raises(ValidationError):
            qim.calibrate(X, wrong[:-1])

    def test_non_binary_labels_rejected(self, rng):
        X, _ = make_data(rng, 100)
        with pytest.raises(ValidationError):
            QualityImpactModel().fit(X, np.full(100, 0.5))


class TestBoundChoices:
    @pytest.mark.parametrize("bound", sorted(BOUND_FUNCTIONS))
    def test_each_bound_works(self, rng, bound):
        X_train, wrong_train = make_data(rng)
        X_cal, wrong_cal = make_data(rng, 1500)
        qim = QualityImpactModel(
            max_depth=3, min_calibration_samples=150, bound=bound
        )
        qim.fit(X_train, wrong_train).calibrate(X_cal, wrong_cal)
        u = qim.estimate_uncertainty(X_cal)
        assert np.all((u >= 0.0) & (u <= 1.0))

    def test_hoeffding_loosest(self, rng):
        X_train, wrong_train = make_data(rng)
        X_cal, wrong_cal = make_data(rng, 1500)
        estimates = {}
        for bound in ("clopper_pearson", "hoeffding"):
            qim = QualityImpactModel(
                max_depth=3, min_calibration_samples=150, bound=bound
            )
            qim.fit(X_train, wrong_train).calibrate(X_cal, wrong_cal)
            estimates[bound] = qim.estimate_uncertainty(X_cal)
        assert np.all(estimates["hoeffding"] >= estimates["clopper_pearson"] - 1e-12)

    def test_unknown_bound_rejected(self):
        with pytest.raises(ValidationError):
            QualityImpactModel(bound="bogus")


class TestParams:
    def test_invalid_params_rejected(self):
        with pytest.raises(ValidationError):
            QualityImpactModel(min_calibration_samples=0)
        with pytest.raises(ValidationError):
            QualityImpactModel(confidence=1.0)
        with pytest.raises(ValidationError):
            QualityImpactModel(confidence=0.0)


class TestTransparency:
    def test_export_contains_bounds(self, calibrated):
        text = calibrated.export_text(feature_names=["qf_a", "qf_b", "qf_c"])
        assert "u <=" in text
        assert "qf_a" in text

    def test_export_requires_calibration(self, rng):
        X, wrong = make_data(rng, 500)
        qim = QualityImpactModel().fit(X, wrong)
        with pytest.raises(NotCalibratedError):
            qim.export_text()


class TestStateDict:
    def test_round_trip_gives_identical_estimates(self, calibrated, rng):
        clone = QualityImpactModel.from_state_dict(calibrated.state_dict())
        X = rng.uniform(size=(500, 3))
        np.testing.assert_array_equal(
            clone.estimate_uncertainty(X), calibrated.estimate_uncertainty(X)
        )
        np.testing.assert_array_equal(
            clone.point_uncertainty(X), calibrated.point_uncertainty(X)
        )
        assert clone.leaf_table() == calibrated.leaf_table()
        assert clone.export_text() == calibrated.export_text()
        assert clone.min_calibration_samples == calibrated.min_calibration_samples

    def test_grown_tree_survives_for_recalibration(self, calibrated, rng):
        clone = QualityImpactModel.from_state_dict(calibrated.state_dict())
        X_cal, wrong_cal = make_data(rng)
        clone.calibrate(X_cal, wrong_cal)
        calibrated.calibrate(X_cal, wrong_cal)
        assert clone.leaf_table() == calibrated.leaf_table()

    def test_unfitted_round_trip(self):
        state = QualityImpactModel(max_depth=3, bound="wilson").state_dict()
        assert state["tree"] is None and state["leaf_upper"] is None
        clone = QualityImpactModel.from_state_dict(state)
        assert clone.max_depth == 3 and clone.bound == "wilson"
        assert not clone.is_calibrated

    def test_missing_key_rejected(self, calibrated):
        state = calibrated.state_dict()
        del state["leaf_upper"]
        with pytest.raises(ValidationError, match="leaf_upper"):
            QualityImpactModel.from_state_dict(state)
