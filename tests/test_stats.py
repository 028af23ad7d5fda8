import pytest

from verisim.stats import regression_metrics


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
