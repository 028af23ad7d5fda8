import json
import logging

import numpy as np
import pytest
from scipy.special import logsumexp, ndtr
from scipy.stats import norm

from verisim import gmm
from verisim.dataio import generate_synthetic_dataset
from verisim.gmm import (
    CELLS,
    EM_MAX_ITER,
    VARIANCE_FLOOR,
    DegenerateDataError,
    GmmModel,
    _em_once,
    _kmeans_seed,
    _nearest,
    _normal_cdf,
    fit_gmm,
    sample_gmm_with,
)
from verisim.workload import FittedWorkload


def two_component_sample(n, seed, mu1=2.0, mu2=6.0, sd=0.5, w=0.5):
    rng = np.random.default_rng(seed)
    pick = rng.random(n) < w
    return np.exp(np.where(pick, rng.normal(mu1, sd, n), rng.normal(mu2, sd, n)))


class TestFitGmm:
    def test_recovers_two_components(self):
        values = two_component_sample(5000, seed=1)
        model = fit_gmm(values, 1, 10, seed=3)
        assert model.k == 2
        assert model.means[0] == pytest.approx(2.0, abs=0.1)
        assert model.means[1] == pytest.approx(6.0, abs=0.1)

    def test_single_lognormal_picks_k1(self):
        rng = np.random.default_rng(2)
        values = np.exp(rng.normal(3.0, 0.7, 1000))
        assert fit_gmm(values, 1, 6, seed=4).k == 1

    def test_constant_data_is_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_gmm([np.e, np.e, np.e, np.e], 1, 2, seed=0)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            fit_gmm([], 1, 1, seed=0)

    def test_nonpositive_value(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0, -2.0, 3.0], 1, 1, seed=0)

    def test_bad_k_range(self):
        with pytest.raises(ValueError):
            fit_gmm([1.0, 2.0, 3.0], 2, 1, seed=0)
        with pytest.raises(ValueError):
            fit_gmm([1.0, 2.0, 3.0], 1, 4, seed=0)

    @pytest.mark.parametrize("k_min, k_max, field", [(1, 2.5, "k_max"), (True, 2, "k_min"), (1.0, 2, "k_min")])
    def test_bad_k_named(self, k_min, k_max, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            fit_gmm(two_component_sample(200, seed=1), k_min, k_max, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_named_before_any_em_run(self, monkeypatch, seed):
        def em(*args):
            raise AssertionError("an EM run started before the seed was checked")

        monkeypatch.setattr(gmm, "_em_once", em)
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            fit_gmm(two_component_sample(200, seed=1), 1, 2, seed=seed)

    def test_information_criteria_formulas(self):
        values = two_component_sample(800, seed=5)
        m = fit_gmm(values, 2, 2, seed=6)
        params = 3 * m.k - 1
        assert m.aic == pytest.approx(2 * params - 2 * m.log_likelihood, rel=1e-12)
        assert m.bic == pytest.approx(params * np.log(m.n) - 2 * m.log_likelihood, rel=1e-12)
        assert np.isfinite(m.aic) and np.isfinite(m.bic)

    def test_weights_sum_to_one(self):
        m = fit_gmm(two_component_sample(1000, seed=7), 1, 3, seed=8)
        assert sum(m.weights) == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0 for w in m.weights)
        assert all(v > 0 for v in m.variances)

    def test_deterministic_given_seed(self):
        values = two_component_sample(1500, seed=9)
        a = fit_gmm(values, 1, 4, seed=10)
        b = fit_gmm(values, 1, 4, seed=10)
        assert a == b

    def test_em_likelihood_monotone(self):
        x = np.log(two_component_sample(1200, seed=11))
        trace = []
        result = _em_once(x, *_kmeans_seed(x, 3, np.random.default_rng(12)), trace=trace)
        assert result is not None
        assert len(trace) >= 2
        diffs = np.diff(np.asarray(trace))
        assert np.all(diffs >= -1e-6 * (1.0 + np.abs(np.asarray(trace)[:-1])))

    def test_serialization_round_trip(self):
        m = fit_gmm(two_component_sample(600, seed=13), 1, 3, seed=14)
        assert GmmModel.from_dict(m.to_dict()) == m


class TestFitDiagnostics:
    def test_clip_spike_warns_cap_and_boundary(self, caplog):
        # the 21000 clip spike pulls a component to the variance floor, EM
        # crawls, and the search runs into its upper end
        used_gas = generate_synthetic_dataset(2000, seed=11).used_gas
        with caplog.at_level(logging.WARNING, logger="verisim.gmm"):
            model = fit_gmm(used_gas, 1, 6, seed=400)
        messages = [r.getMessage() for r in caplog.records]
        assert model.k == 6
        assert "selected K=6 is the top of the search range [1, 6]" in messages
        capped = [m for m in messages if f"at the {EM_MAX_ITER}-iteration cap" in m]
        assert capped and all(m.startswith("K=") and " of 5 EM restarts" in m for m in capped)

    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_capped_run_returns_its_own_likelihood(self, k):
        # a run stopped at the cap must not pair one step's likelihood with
        # the next step's parameters
        x = np.log(generate_synthetic_dataset(2000, seed=11).used_gas.astype(np.float64))
        trace = []
        log_l, weights, means, variances = _em_once(x, *_kmeans_seed(x, k, np.random.default_rng(200 + k)), trace)
        assert len(trace) == EM_MAX_ITER
        own = logsumexp(norm.logpdf(x[:, None], means, np.sqrt(variances)), b=weights, axis=1).sum()
        assert log_l == pytest.approx(own, rel=1e-6)

    def test_converged_fit_is_quiet(self, caplog):
        with caplog.at_level(logging.WARNING, logger="verisim.gmm"):
            fit_gmm(two_component_sample(2000, seed=15), 2, 2, seed=16)
        assert caplog.records == []


def log_likelihood(model, x):
    """A mixture's log-likelihood of the log-scale data x, computed apart from EM."""
    return logsumexp(norm.logpdf(x[:, None], model.means, np.sqrt(model.variances)), b=model.weights, axis=1).sum()


def traced_em(monkeypatch):
    """Record the likelihood trace of every EM run that ``fit_gmm`` makes."""
    traces = []
    real = gmm._em_once

    def em(x, weights, means, variances, trace=None):
        traces.append([] if trace is None else trace)
        return real(x, weights, means, variances, traces[-1])

    monkeypatch.setattr(gmm, "_em_once", em)
    return traces


class TestWarmStart:
    def test_refit_is_one_run_from_the_start(self, monkeypatch):
        values = two_component_sample(3000, seed=21)
        start = fit_gmm(values[:500], 1, 4, seed=22)
        traces = traced_em(monkeypatch)
        refit = fit_gmm(values, start.k, start.k, seed=23, start=start)
        assert len(traces) == 1
        # the first E-step scores the start on all rows, and EM only climbs
        own = log_likelihood(start, np.log(values))
        assert traces[0][0] == pytest.approx(own, rel=1e-9)
        assert refit.log_likelihood >= traces[0][0]
        assert refit.k == start.k and refit.n == values.size

    def test_refit_ignores_the_seed(self):
        values = two_component_sample(2000, seed=24)
        start = fit_gmm(values[:400], 2, 2, seed=25)
        assert fit_gmm(values, 2, 2, seed=1, start=start) == fit_gmm(values, 2, 2, seed=2, start=start)

    @pytest.mark.parametrize("k_min, k_max", [(3, 3), (1, 2), (2, 3)])
    def test_start_of_another_k_rejected(self, k_min, k_max):
        values = two_component_sample(500, seed=26)
        start = mixture((0.5, 0.5), (2.0, 6.0), (0.25, 0.25))
        with pytest.raises(ValueError, match="^start must have k == k_min == k_max"):
            fit_gmm(values, k_min, k_max, start=start)

    def test_start_the_data_cannot_support_is_degenerate(self):
        values = two_component_sample(500, seed=27)
        # the second component lies so far from every row that it takes none of them
        start = mixture((0.5, 0.5), (4.0, 1e3), (1.0, VARIANCE_FLOOR))
        with pytest.raises(DegenerateDataError, match="^start"):
            fit_gmm(values, 2, 2, start=start)

    def test_refit_logs_its_iterations_and_likelihood(self, monkeypatch, caplog):
        values = two_component_sample(2000, seed=28)
        start = fit_gmm(values[:400], 2, 2, seed=29)
        traces = traced_em(monkeypatch)
        with caplog.at_level(logging.INFO, logger="verisim.gmm"):
            refit = fit_gmm(values, 2, 2, start=start)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, f"K=2: refit from start in {len(traces[0])} EM iterations, "
                           f"log-likelihood {refit.log_likelihood:.10g}"),
        ]

    def test_refit_at_the_cap_warns(self, monkeypatch, caplog):
        values = two_component_sample(2000, seed=28)
        start = mixture((0.5, 0.5), (3.0, 4.0), (1.0, 1.0))  # far from the fit, so EM needs many steps
        monkeypatch.setattr(gmm, "EM_MAX_ITER", 4)
        with caplog.at_level(logging.WARNING, logger="verisim.gmm"):
            fit_gmm(values, 2, 2, start=start)
        assert [r.getMessage() for r in caplog.records] == [
            "K=2: the EM refit from start stopped at the 4-iteration cap unconverged",
        ]


def canned_search(monkeypatch, scores, k_max=6):
    """Run a BIC search over K = 1..k_max whose K-th fit scores ``scores[K - 1]``
    (None: every restart collapses); returns the model and the K values fitted."""
    values = np.exp(np.linspace(0.0, 1.0, 50))
    fitted = []

    def fake_fit_k(x, k, seed_seq):
        fitted.append(k)
        score = scores[k - 1]
        if score is None:
            return None, 0
        log_l = ((3 * k - 1) * np.log(x.size) - score) / 2.0
        return (log_l, np.full(k, 1.0 / k), np.arange(float(k)), np.ones(k)), 0

    monkeypatch.setattr(gmm, "_fit_k", fake_fit_k)
    return fit_gmm(values, 1, k_max, seed=0), fitted


class TestSearchStop:
    def test_two_rises_stop_the_search(self, monkeypatch, caplog):
        with caplog.at_level(logging.INFO, logger="verisim.gmm"):
            model, fitted = canned_search(monkeypatch, [10.0, 11.0, 12.0, 5.0, 4.0, 3.0])
        assert fitted == [1, 2, 3]
        assert model.k == 1 and model.bic == pytest.approx(10.0)
        messages = [r.getMessage() for r in caplog.records]
        assert messages == ["K=1: BIC 10", "K=2: BIC 11", "K=3: BIC 12",
                            "stopped the K search at K=3: BIC rose on two K in a row"]

    def test_a_new_minimum_after_one_rise_keeps_the_search_going(self, monkeypatch, caplog):
        with caplog.at_level(logging.INFO, logger="verisim.gmm"):
            model, fitted = canned_search(monkeypatch, [10.0, 11.0, 8.0, 9.0, 7.0, 12.0])
        assert fitted == [1, 2, 3, 4, 5, 6]
        assert model.k == 5 and model.bic == pytest.approx(7.0)
        assert not any("stopped" in r.getMessage() for r in caplog.records)

    def test_a_collapsed_k_neither_counts_nor_resets(self, monkeypatch):
        # counted as a rise, K=3 would stop the search; as a reset, K=5 would win
        model, fitted = canned_search(monkeypatch, [10.0, 11.0, None, 12.0, 5.0, 4.0])
        assert fitted == [1, 2, 3, 4]
        assert model.k == 1

    def test_a_rise_at_the_top_of_the_range_is_not_an_early_stop(self, monkeypatch, caplog):
        with caplog.at_level(logging.INFO, logger="verisim.gmm"):
            model, fitted = canned_search(monkeypatch, [10.0, 11.0, 12.0], k_max=3)
        assert fitted == [1, 2, 3] and model.k == 1
        assert not any("stopped" in r.getMessage() for r in caplog.records)

    def test_real_search_logs_each_score(self, caplog):
        values = two_component_sample(2000, seed=15)
        with caplog.at_level(logging.INFO, logger="verisim.gmm"):
            model = fit_gmm(values, 1, 8, seed=16)
        scores = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
        assert scores[model.k - 1] == f"K={model.k}: BIC {model.bic:.10g}"
        assert scores[-1].startswith("stopped the K search at K=")


class TestComponentMajor:
    def test_nearest_matches_argmin_with_ties(self):
        x = np.array([0.0, 1.0, 2.0, 3.0, 1.5, -4.0, 9.0])
        centers = np.array([1.0, 2.0, 1.0, 2.0, 0.0])  # duplicates and a midpoint tie
        expected = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
        assert np.array_equal(_nearest(x, centers), expected)


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
# the most components a byte counts, and more than a byte can count
K255, K257 = (mixture((1 / k,) * k, tuple(np.linspace(9.0, 16.0, k)), (0.1,) * k) for k in (255, 257))


class TestSampleStream:
    """The simulator's golden results rest on this exact stream contract."""

    @pytest.mark.parametrize("model", [K1, K6, K255, K257], ids=["k1", "k6", "k255", "k257"])
    @pytest.mark.parametrize("n", [1, 7, 65_536])
    def test_gathers_one_uniform_pick_per_value(self, model, n):
        """Each value is the table cell that one ``integers(0, CELLS)`` pick names."""
        rng, ref = np.random.default_rng(123), np.random.default_rng(123)
        out = sample_gmm_with(model, n, rng)
        assert np.array_equal(out, model.cells()[ref.integers(0, CELLS, n, dtype=np.uint16)])
        assert rng.random() == ref.random()


def mixture_mean(model):
    return sum(w * np.exp(m + 0.5 * v) for w, m, v in zip(model.weights, model.means, model.variances))


def exact_cells(model, picks):
    """The exact mean of exp(Y) over the cells ``picks``, from scipy's normal
    CDF: each cell edge found by bisection, then the partial expectation's
    rise across the cell."""
    w, m = np.asarray(model.weights), np.asarray(model.means)
    s = np.sqrt(np.asarray(model.variances))

    def partial(y):
        return (w * np.exp(m + 0.5 * s * s) * ndtr((y[:, None] - m) / s - s)).sum(axis=1)

    u = np.concatenate([picks, picks + 1]) / CELLS
    lo, hi = np.full(u.size, (m - 40 * s).min()), np.full(u.size, (m + 40 * s).max())
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        below = (w * ndtr((mid[:, None] - m) / s)).sum(axis=1) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    edges = partial(0.5 * (lo + hi))
    edges[u == 1.0] = mixture_mean(model)
    return CELLS * (edges[picks.size:] - edges[: picks.size])


class TestCellTable:
    """A law's table: equal-probability cells, each the law's mean over its quantiles."""

    @pytest.mark.parametrize("model", [K1, K6, K255, K257, mixture((1.0,), (0.0,), (1e-12,))],
                             ids=["k1", "k6", "k255", "k257", "point"])
    def test_mean_is_the_mixture_mean(self, model):
        cells = model.cells()
        assert cells.shape == (CELLS,) and cells.dtype == np.float64
        assert cells.mean() == pytest.approx(mixture_mean(model), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("model", [K1, K6], ids=["k1", "k6"])
    def test_cells_are_the_exact_cell_means(self, model):
        # every 61st cell and the 20 at each end, where the knots are widest
        picks = np.unique(np.concatenate([np.arange(0, CELLS, 61), np.arange(20), np.arange(CELLS - 20, CELLS)]))
        assert np.allclose(model.cells()[picks], exact_cells(model, picks), rtol=1e-5, atol=0.0)
        assert np.all(np.diff(model.cells()) >= 0)

    def test_built_once_and_read_only(self):
        model = mixture((0.3, 0.7), (1.0, 4.0), (0.5, 0.2))
        cells = model.cells()
        assert model.cells() is cells
        with pytest.raises(ValueError):
            cells[0] = 1.0

    def test_normal_cdf_matches_scipy(self):
        x = np.linspace(-40.0, 40.0, 400_001)
        assert np.max(np.abs(_normal_cdf(x) - ndtr(x))) <= 1e-15


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

    @pytest.mark.parametrize(
        "field, value",
        [("log_likelihood", float("inf")), ("aic", float("nan")), ("bic", float("-inf"))],
    )
    def test_non_finite_criterion_in_a_model_file_rejected(self, toy_wl, tmp_path, field, value):
        path = tmp_path / "workload.json"
        toy_wl.save(path)
        payload = json.loads(path.read_text())
        payload["used_gas_model"][field] = value
        path.write_text(json.dumps(payload))  # writes the NaN/Infinity literals
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FittedWorkload.load(path)
