import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from tests.helpers import distribution_distance, pearson, spearman
from verisim.stats import regression_metrics


class TestPearson:
    def test_perfect_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 3 for x in xs]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 5.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_quadratic_example(self):
        assert pearson([1, 2, 3], [1, 4, 9]) == pytest.approx(0.9897, abs=1e-4)

    def test_constant_input_errors(self):
        with pytest.raises(ValueError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    @given(st.lists(st.integers(-1000, 1000), min_size=3, max_size=40),
           st.floats(0.1, 100.0), st.floats(-50.0, 50.0))
    def test_affine_invariance(self, xs, a, b):
        xs = np.asarray(xs, dtype=float)
        if np.std(xs) < 1.0:
            return
        assert pearson(xs, a * xs + b) == pytest.approx(1.0, abs=1e-9)

    @given(st.lists(st.tuples(st.integers(-100, 100), st.integers(-100, 100)), min_size=3, max_size=60))
    def test_matches_scipy(self, pairs):
        xs = np.asarray([p[0] for p in pairs], dtype=float)
        ys = np.asarray([p[1] for p in pairs], dtype=float)
        if np.std(xs) == 0 or np.std(ys) == 0:
            return
        expected = sps.pearsonr(xs, ys).statistic
        assert pearson(xs, ys) == pytest.approx(expected, abs=1e-9)


class TestSpearman:
    def test_monotone_transform(self):
        xs = np.asarray([0.5, 1.0, 2.0, 3.5, 7.0])
        assert spearman(xs, np.exp(xs)) == pytest.approx(1.0)

    def test_reversed(self):
        xs = [1.0, 2.0, 3.0, 9.0]
        assert spearman(xs, sorted(xs, reverse=True)) == pytest.approx(-1.0)

    def test_rank_example(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_constant_errors(self):
        with pytest.raises(ValueError):
            spearman([2, 2, 2], [1, 2, 3])

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=3, max_size=50))
    def test_matches_scipy_with_ties(self, pairs):
        xs = np.asarray([p[0] for p in pairs], dtype=float)
        ys = np.asarray([p[1] for p in pairs], dtype=float)
        if np.std(xs) == 0 or np.std(ys) == 0:
            return
        expected = sps.spearmanr(xs, ys).statistic
        assert spearman(xs, ys) == pytest.approx(expected, abs=1e-9)

    @given(st.lists(st.integers(-100, 100), min_size=4, max_size=40, unique=True))
    def test_invariant_under_monotone_map(self, xs):
        xs = np.asarray(xs, dtype=float)
        ys = np.cos(xs)  # arbitrary target
        if np.std(ys) == 0:
            return
        # exp(x/50) is strictly monotone and keeps distinct integers distinct
        assert spearman(np.exp(xs / 50.0), ys) == pytest.approx(spearman(xs, ys), abs=1e-9)


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        m = regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m == {"mae": 0.0, "rmse": 0.0, "r2": 1.0}

    def test_mean_predictor_gives_zero_r2(self):
        # [1, 1] is exactly the mean of [0, 2]: MAE = RMSE = 1 and R^2 = 0 by
        # the definition 1 - SS_res/SS_tot (SS_res equals SS_tot here)
        m = regression_metrics([0.0, 2.0], [1.0, 1.0])
        assert m["mae"] == pytest.approx(1.0)
        assert m["rmse"] == pytest.approx(1.0)
        assert m["r2"] == pytest.approx(0.0)

    def test_constant_truth_convention(self):
        assert regression_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])["r2"] == 0.0

    def test_worse_than_mean_is_negative(self):
        assert regression_metrics([0.0, 2.0], [2.0, 0.0])["r2"] == pytest.approx(-3.0)


class TestDistributionDistance:
    def test_identical_samples(self):
        assert distribution_distance([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])["ks_stat"] == 0.0

    def test_disjoint_supports(self):
        assert distribution_distance([0.0] * 100, [1.0] * 100)["ks_stat"] == 1.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            distribution_distance([], [1.0])

    def test_same_distribution_below_critical_value(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=10_000), rng.normal(size=10_000)
        # two-sample KS critical value at alpha=0.001 for n=m=1e4
        assert distribution_distance(a, b)["ks_stat"] < 1.95 * np.sqrt(2 / 10_000)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy's own internals on n=1
    @settings(max_examples=50)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=80),
           st.lists(st.floats(-50, 50), min_size=1, max_size=80))
    def test_matches_scipy(self, a, b):
        expected = sps.ks_2samp(a, b, method="asymp").statistic
        assert distribution_distance(a, b)["ks_stat"] == pytest.approx(expected, abs=1e-9)
