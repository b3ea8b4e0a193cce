"""Tests for binomial proportion confidence bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.exceptions import ValidationError
from repro.stats.binomial import (
    clopper_pearson_interval,
    clopper_pearson_lower,
    clopper_pearson_upper,
    hoeffding_upper,
    jeffreys_upper,
    required_samples_for_bound,
    wilson_upper,
    zero_failure_bound,
)


class TestClopperPearsonUpper:
    def test_matches_beta_quantile(self):
        # Textbook identity: upper bound is the Beta(k+1, n-k) quantile.
        expected = sps.beta.ppf(0.999, 6, 95)
        assert clopper_pearson_upper(5, 100, 0.999) == pytest.approx(expected)

    def test_zero_failures_closed_form(self):
        # For k = 0 the bound is 1 - (1 - confidence)^(1/n).
        n, conf = 959, 0.999
        expected = 1.0 - (1.0 - conf) ** (1.0 / n)
        assert clopper_pearson_upper(0, n, conf) == pytest.approx(expected)

    def test_papers_minimum_uncertainty(self):
        # The paper's Fig. 5 reports a lowest guaranteed u of 0.0072 at
        # 99.9 % confidence; this corresponds to a zero-failure leaf with
        # roughly 959 calibration samples.
        assert clopper_pearson_upper(0, 959, 0.999) == pytest.approx(0.0072, abs=2e-4)

    def test_all_failures_is_one(self):
        assert clopper_pearson_upper(10, 10) == 1.0

    def test_scalar_in_scalar_out(self):
        assert isinstance(clopper_pearson_upper(1, 10), float)

    def test_array_input(self):
        result = clopper_pearson_upper([0, 1, 2], 100)
        assert result.shape == (3,)
        assert np.all(np.diff(result) > 0)

    def test_broadcasting(self):
        result = clopper_pearson_upper([[0], [5]], [100, 200])
        assert result.shape == (2, 2)

    def test_monotone_in_failures(self):
        bounds = clopper_pearson_upper(np.arange(0, 51), 100)
        assert np.all(np.diff(bounds) > 0)

    def test_decreasing_in_trials_at_zero_failures(self):
        bounds = clopper_pearson_upper(0, np.array([10, 100, 1000, 10000]))
        assert np.all(np.diff(bounds) < 0)

    def test_higher_confidence_gives_larger_bound(self):
        assert clopper_pearson_upper(3, 100, 0.999) > clopper_pearson_upper(
            3, 100, 0.95
        )

    def test_bound_above_point_estimate(self):
        assert clopper_pearson_upper(20, 100, 0.999) > 0.2

    @pytest.mark.parametrize(
        "k,n", [(-1, 10), (11, 10), (0, 0), (0, -5)]
    )
    def test_invalid_counts_rejected(self, k, n):
        with pytest.raises(ValidationError):
            clopper_pearson_upper(k, n)

    @pytest.mark.parametrize("conf", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_confidence_rejected(self, conf):
        with pytest.raises(ValidationError):
            clopper_pearson_upper(1, 10, conf)

    @given(
        k=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=51, max_value=5000),
    )
    @settings(max_examples=50, deadline=None)
    def test_bound_in_unit_interval(self, k, n):
        u = clopper_pearson_upper(k, n, 0.999)
        assert 0.0 < u <= 1.0


class TestClopperPearsonLower:
    def test_zero_failures_is_zero(self):
        assert clopper_pearson_lower(0, 100) == 0.0

    def test_below_point_estimate(self):
        assert clopper_pearson_lower(20, 100, 0.999) < 0.2

    def test_matches_beta_quantile(self):
        expected = sps.beta.ppf(0.001, 5, 96)
        assert clopper_pearson_lower(5, 100, 0.999) == pytest.approx(expected)

    @given(
        k=st.integers(min_value=0, max_value=100),
        n=st.integers(min_value=100, max_value=2000),
    )
    @settings(max_examples=50, deadline=None)
    def test_lower_never_exceeds_upper(self, k, n):
        assert clopper_pearson_lower(k, n) <= clopper_pearson_upper(k, n)


class TestInterval:
    def test_contains_point_estimate(self):
        lower, upper = clopper_pearson_interval(30, 100, 0.99)
        assert lower < 0.3 < upper

    def test_wider_than_one_sided(self):
        lower, upper = clopper_pearson_interval(30, 100, 0.99)
        assert upper > clopper_pearson_upper(30, 100, 0.99)


class TestAlternativeBounds:
    def test_wilson_less_conservative_than_cp_at_moderate_rates(self):
        # Away from the extreme tails Wilson sits inside Clopper-Pearson.
        assert wilson_upper(20, 500, 0.95) < clopper_pearson_upper(20, 500, 0.95)

    def test_jeffreys_between_wilson_and_hoeffding(self):
        j = jeffreys_upper(5, 500, 0.999)
        h = hoeffding_upper(5, 500, 0.999)
        assert j < h

    def test_jeffreys_all_failures_is_one(self):
        assert jeffreys_upper(10, 10) == 1.0

    def test_hoeffding_clamped_to_one(self):
        assert hoeffding_upper(9, 10, 0.999) == 1.0

    def test_hoeffding_closed_form(self):
        expected = 0.1 + np.sqrt(np.log(1 / 0.001) / (2 * 100))
        assert hoeffding_upper(10, 100, 0.999) == pytest.approx(expected)

    @given(
        k=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=100, max_value=5000),
    )
    @settings(max_examples=50, deadline=None)
    def test_all_bounds_dominate_point_estimate(self, k, n):
        p_hat = k / n
        for fn in (clopper_pearson_upper, wilson_upper, jeffreys_upper, hoeffding_upper):
            assert fn(k, n, 0.999) >= p_hat


class TestRequiredSamples:
    def test_round_trip(self):
        n = required_samples_for_bound(0.0072, 0.999)
        assert clopper_pearson_upper(0, n, 0.999) <= 0.0072
        assert clopper_pearson_upper(0, n - 1, 0.999) > 0.0072

    def test_known_paper_value(self):
        # ~956-959 samples certify the paper's minimum uncertainty of 0.0072.
        assert required_samples_for_bound(0.0072, 0.999) == pytest.approx(958, abs=3)

    def test_tighter_bound_needs_more_samples(self):
        assert required_samples_for_bound(0.001) > required_samples_for_bound(0.01)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValidationError):
            required_samples_for_bound(0.0)
        with pytest.raises(ValidationError):
            required_samples_for_bound(1.0)

    def test_max_samples_guard(self):
        with pytest.raises(ValidationError):
            required_samples_for_bound(1e-9, 0.999, max_samples=1000)


class TestZeroFailureBound:
    def test_matches_cp_at_zero(self):
        assert zero_failure_bound(500) == pytest.approx(
            clopper_pearson_upper(0, 500)
        )

    def test_array(self):
        bounds = zero_failure_bound(np.array([100, 1000]))
        assert bounds.shape == (2,)
        assert bounds[0] > bounds[1]


class TestScipySpecialKernels:
    """The bounds call ``scipy.special`` directly; pin that they stay
    bitwise equal to the ``scipy.stats`` quantiles they replace."""

    @pytest.fixture(scope="class")
    def counts(self):
        rng = np.random.default_rng(2023)
        n = rng.integers(1, 5000, size=20_000).astype(float)
        k = np.minimum(np.floor(rng.random(n.size) * (n + 1)), n)
        return k, n

    @pytest.mark.parametrize("q", [0.999, 0.9995, 0.95, 0.001])
    def test_bitwise_equal_to_scipy_stats(self, counts, q):
        k, n = counts
        open_upper = k < n
        expected = np.ones_like(k)
        expected[open_upper] = sps.beta.ppf(
            q, k[open_upper] + 1.0, n[open_upper] - k[open_upper]
        )
        np.testing.assert_array_equal(clopper_pearson_upper(k, n, q), expected)

        open_lower = k > 0
        expected = np.zeros_like(k)
        expected[open_lower] = sps.beta.ppf(
            1.0 - q, k[open_lower], n[open_lower] - k[open_lower] + 1.0
        )
        np.testing.assert_array_equal(clopper_pearson_lower(k, n, q), expected)

        expected = np.where(
            k >= n, 1.0, sps.beta.ppf(q, k + 0.5, n - k + 0.5)
        )
        np.testing.assert_array_equal(jeffreys_upper(k, n, q), expected)

        z = sps.norm.ppf(q)
        p_hat = k / n
        expected = np.minimum(
            1.0,
            (p_hat + z * z / (2.0 * n)
             + z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)))
            / (1.0 + z * z / n),
        )
        np.testing.assert_array_equal(wilson_upper(k, n, q), expected)

    def test_import_does_not_load_scipy_stats(self):
        import subprocess
        import sys

        code = (
            "import sys, repro.evaluation; "
            "print('scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"
