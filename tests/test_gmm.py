import numpy as np
import pytest

from verisim.gmm import (
    DegenerateDataError,
    GmmModel,
    _em_once,
    fit_gmm,
    sample_gmm_with,
)


def two_component_sample(n, seed, mu1=2.0, mu2=6.0, sd=0.5, w=0.5):
    rng = np.random.default_rng(seed)
    pick = rng.random(n) < w
    return np.exp(np.where(pick, rng.normal(mu1, sd, n), rng.normal(mu2, sd, n)))


class TestFitGmm:
    def test_recovers_two_components(self):
        values = two_component_sample(5000, seed=1)
        model = fit_gmm(values, 1, 10, "bic", seed=3)
        assert model.k == 2
        assert model.means[0] == pytest.approx(2.0, abs=0.1)
        assert model.means[1] == pytest.approx(6.0, abs=0.1)

    def test_single_lognormal_picks_k1(self):
        rng = np.random.default_rng(2)
        values = np.exp(rng.normal(3.0, 0.7, 1000))
        assert fit_gmm(values, 1, 6, "bic", seed=4).k == 1

    def test_constant_data_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_gmm([np.e, np.e, np.e, np.e], 1, 2, "bic", seed=0)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            fit_gmm([], 1, 1, "bic", seed=0)

    def test_nonpositive_value(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0, -2.0, 3.0], 1, 1, "bic", seed=0)

    def test_bad_k_range(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0, 2.0, 3.0], 2, 1, "bic", seed=0)
        with pytest.raises(ValueError):
            fit_gmm([1.0, 2.0, 3.0], 1, 4, "bic", seed=0)

    def test_information_criteria_formulas(self):
        values = two_component_sample(800, seed=5)
        m = fit_gmm(values, 2, 2, "aic", seed=6)
        params = 3 * m.k - 1
        assert m.aic == pytest.approx(2 * params - 2 * m.log_likelihood, rel=1e-12)
        assert m.bic == pytest.approx(params * np.log(m.n) - 2 * m.log_likelihood, rel=1e-12)
        assert np.isfinite(m.aic) and np.isfinite(m.bic)

    def test_weights_sum_to_one(self):
        m = fit_gmm(two_component_sample(1000, seed=7), 1, 3, "bic", seed=8)
        assert sum(m.weights) == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0 for w in m.weights)
        assert all(v > 0 for v in m.variances)

    def test_deterministic_given_seed(self):
        values = two_component_sample(1500, seed=9)
        a = fit_gmm(values, 1, 4, "bic", seed=10)
        b = fit_gmm(values, 1, 4, "bic", seed=10)
        assert a == b

    def test_em_likelihood_monotone(self):
        values = two_component_sample(1200, seed=11)
        trace = []
        result = _em_once(np.log(values), 3, np.random.default_rng(12), trace=trace)
        assert result is not None
        assert len(trace) >= 2
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= -1e-6 * (1.0 + np.abs(np.asarray(trace)[:-1])))

    def test_serialization_round_trip(self):
        m = fit_gmm(two_component_sample(600, seed=13), 1, 3, "bic", seed=14)
        assert GmmModel.from_dict(m.to_dict()) == m


class TestSampleGmm:
    def test_near_zero_variance_gives_unit_values(self):
        m = GmmModel(k=1, weights=(1.0,), means=(0.0,), variances=(1e-12,),
                     log_likelihood=0.0, aic=0.0, bic=0.0, n=1)
        out = sample_gmm_with(m, 3, np.random.default_rng(0))
        assert np.all(np.abs(out - 1.0) < 1e-4)

    def test_mixture_mean_law_of_large_numbers(self):
        m = GmmModel(k=2, weights=(0.5, 0.5), means=(2.0, 6.0), variances=(0.25, 0.25),
                     log_likelihood=0.0, aic=0.0, bic=0.0, n=1)
        out = sample_gmm_with(m, 100_000, np.random.default_rng(1))
        assert np.log(out).mean() == pytest.approx(0.5 * 2.0 + 0.5 * 6.0, abs=0.05)

    def test_deterministic(self):
        m = GmmModel(k=2, weights=(0.3, 0.7), means=(1.0, 4.0), variances=(0.5, 0.2),
                     log_likelihood=0.0, aic=0.0, bic=0.0, n=1)

        def draw(n, seed):
            return sample_gmm_with(m, n, np.random.default_rng(seed))

        assert draw(1, 42) == draw(1, 42)
        assert np.array_equal(draw(50, 9), draw(50, 9))

    def test_positive_outputs(self):
        m = GmmModel(k=1, weights=(1.0,), means=(-3.0,), variances=(4.0,),
                     log_likelihood=0.0, aic=0.0, bic=0.0, n=1)
        assert np.all(sample_gmm_with(m, 1000, np.random.default_rng(3)) > 0)


def mixture(weights, means, variances):
    return GmmModel(k=len(weights), weights=weights, means=means, variances=variances,
                    log_likelihood=0.0, aic=0.0, bic=0.0, n=1)


K1 = mixture((1.0,), (10.8,), (0.9,))
# the fitted used-gas shape: two near-point components at the clip bounds
K6 = mixture((0.068, 0.21, 0.33, 0.25, 0.138, 0.004), (9.95, 10.6, 11.3, 12.1, 13.2, 15.9),
             (1e-8, 0.2, 0.35, 0.5, 0.8, 1e-8))


class TestSampleStream:
    """The simulator's golden results rest on this exact stream contract."""

    @pytest.mark.parametrize("model", [K1, K6], ids=["k1", "k6"])
    @pytest.mark.parametrize("n", [1, 7, 65_536])
    def test_matches_choice_then_normal(self, model, n):
        rng, ref = np.random.default_rng(123), np.random.default_rng(123)
        out = sample_gmm_with(model, n, rng)
        comps = ref.choice(model.k, size=n, p=np.asarray(model.weights))
        expected = np.exp(ref.normal(np.asarray(model.means)[comps], np.sqrt(np.asarray(model.variances))[comps]))
        assert np.array_equal(out, expected)
        assert rng.random() == ref.random()


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GmmModel(k=2, weights=(0.5, 0.4), means=(0.0, 1.0), variances=(1.0, 1.0),
                     log_likelihood=0.0, aic=0.0, bic=0.0, n=1)

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            GmmModel(k=1, weights=(1.0,), means=(0.0,), variances=(0.0,),
                     log_likelihood=0.0, aic=0.0, bic=0.0, n=1)

    @pytest.mark.parametrize(
        "field, change",
        [
            ("weights", {"weights": (float("nan"), 1.0)}),
            ("weights", {"weights": (0.5, 0.5, 0.0)}),
            ("means", {"means": (0.0, float("inf"))}),
            ("means", {"means": (0.0,)}),
            ("variances", {"variances": (float("nan"), 1.0)}),
        ],
    )
    def test_non_finite_or_misshapen_rejected(self, field, change):
        d = mixture((0.5, 0.5), (0.0, 1.0), (1.0, 1.0)).to_dict()
        d.update({key: list(value) for key, value in change.items()})
        with pytest.raises(ValueError, match=f"^{field}"):
            GmmModel.from_dict(d)
