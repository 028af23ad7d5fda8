"""Acceptance suite: one test per criterion, each printing a pass line.

Stochastic criteria run at fixed seeds (every simulation and fit here is
bit-reproducible), at desk scale: shorter simulated spans and fewer runs than
a full study, with tolerances stated per criterion.
"""

from dataclasses import replace

import numpy as np
import pytest

from verisim.analytics import (
    VerificationParams,
    nonverifier_reward,
    par_slowdown,
    reward_table,
    seq_slowdown,
    uniform_profile,
    verifier_reward,
)
from verisim.blocks import build_block, measure_verification_times, verification_time
from verisim.config import MinerConfig, ScenarioConfig, standard_miners
from verisim.forest import fit_forest, fit_rfr
from verisim.gmm import _em_once, fit_gmm, sample_gmm_with
from verisim.scenario import closed_form_gain, nonverifier_gain, run_many
from verisim.sim import run_simulation
from verisim.stats import distribution_distance, regression_metrics
from verisim.workload import sample_transaction_arrays

TEN_MINERS_ONE_SKIP = uniform_profile(10, nonverifier_alpha=0.1)


def test_criterion_1_sequential_worked_example():
    """Sequential verification: slowdown 0.318, shares 0.877 / 0.122."""
    delta = seq_slowdown(TEN_MINERS_ONE_SKIP, t_v=3.18)
    assert delta == pytest.approx(0.318, abs=1e-12)

    t_b = 12.0
    total_verifier = sum(
        verifier_reward(m.alpha, t_b, delta) for m in TEN_MINERS_ONE_SKIP.miners if m.verifies
    )
    assert total_verifier == pytest.approx(0.877, abs=0.002)

    skip = nonverifier_reward(0.1, 0.1, 0.9, total_verifier)
    assert skip == pytest.approx(0.122, abs=0.002)
    print(f"\n[criterion 1] PASS: delta=0.318, verifiers {total_verifier:.4f}, non-verifier {skip:.4f}")


def test_criterion_2_parallel_worked_example():
    """Parallel verification with c=0.4, p=4: slowdown 0.1749, share 0.112."""
    params = VerificationParams(t_v=3.18, t_b=12.0, c=0.4, p=4)
    delta = par_slowdown(TEN_MINERS_ONE_SKIP, params)
    assert delta == pytest.approx(0.1749, abs=1e-4)

    rows = reward_table(TEN_MINERS_ONE_SKIP, params, mode="parallel")
    skip = [r for r in rows if not r.verifies][0]
    assert skip.expected_fraction == pytest.approx(0.112, abs=0.002)
    print(f"\n[criterion 2] PASS: delta={delta:.4f}, non-verifier {skip.expected_fraction:.4f}")


def test_criterion_3_analytic_sweep_endpoints(fitted_workload):
    """Closed-form gains at measured verification times: ~1.7% at 8M, ~22% at 128M."""
    profile = uniform_profile(10, nonverifier_alpha=0.05)
    gains = {}
    for limit in (8_000_000, 128_000_000):
        t_v = float(np.mean(measure_verification_times(fitted_workload, limit, 1200, seed=11)))
        rows = reward_table(profile, VerificationParams(t_v=t_v, t_b=12.42), "sequential")
        gains[limit] = [r for r in rows if not r.verifies][0].relative_gain_pct
    assert gains[8_000_000] == pytest.approx(1.7, rel=0.15)
    assert gains[128_000_000] == pytest.approx(22.0, rel=0.15)
    print(
        f"\n[criterion 3] PASS: gain {gains[8_000_000]:+.2f}% at 8M, "
        f"{gains[128_000_000]:+.2f}% at 128M (within 15% of +1.7% / +22%)"
    )


def test_criterion_4_simulation_matches_closed_form(fitted_workload):
    """1h x 20 runs at {8M, 32M, 128M}: simulated gain within 25% of closed form,
    with the closed form overestimating at 128M in most runs."""
    base = ScenarioConfig(
        block_limit=8_000_000,
        miners=standard_miners(10, nonverifier_alpha=0.1),
        t_b=12.42,
        sim_duration=3600.0,
        runs=20,
        base_seed=42,
    )
    lines = []
    for limit in (8_000_000, 32_000_000, 128_000_000):
        config = replace(base, block_limit=limit)
        t_v = float(np.mean(measure_verification_times(fitted_workload, limit, 1200, seed=11)))
        closed = closed_form_gain(config, t_v)
        gains = [nonverifier_gain(r, "expected") for r in run_many(config, fitted_workload)]
        sim = float(np.mean(gains))
        rel = abs(closed - sim) / abs(closed)
        assert rel <= 0.25, f"limit {limit}: closed {closed:+.3f}% vs sim {sim:+.3f}% ({rel:.0%} off)"
        lines.append(f"{limit // 1_000_000}M: closed {closed:+.2f}% sim {sim:+.2f}% ({rel:.0%})")
        if limit == 128_000_000:
            nonneg = sum(1 for g in gains if closed - g >= 0)
            assert nonneg >= 0.6 * len(gains), f"overestimate in only {nonneg}/20 runs"
            lines.append(f"128M sign: closed form >= simulation in {nonneg}/20 runs")
    print("\n[criterion 4] PASS: " + "; ".join(lines))


def test_criterion_5_verification_time_calibration(fitted_workload):
    """Mean block verification time 0.23 +- 0.02 s at 8M; each doubling of the
    limit multiplies it by 1.7 to 2.3."""
    limits = [8_000_000, 16_000_000, 32_000_000, 64_000_000, 128_000_000]
    means = {
        limit: float(np.mean(measure_verification_times(fitted_workload, limit, 1200, seed=11)))
        for limit in limits
    }
    assert 0.21 <= means[8_000_000] <= 0.25
    factors = [means[b] / means[a] for a, b in zip(limits, limits[1:])]
    assert all(1.7 <= f <= 2.3 for f in factors), factors
    print(
        f"\n[criterion 5] PASS: mean t_v at 8M = {means[8_000_000]:.4f}s, "
        f"doubling factors {[round(f, 2) for f in factors]}"
    )


def test_criterion_6_invalid_block_punishment(fitted_workload):
    """invalid_rate=0.04: the non-verifier loses at 8M (1-10% of its power) and
    keeps a gain at 128M that is at least 25% below the no-invalid gain."""
    miners = standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.04)

    def mean_fee_gain(limit, with_invalid):
        config = ScenarioConfig(
            block_limit=limit,
            miners=miners if with_invalid else standard_miners(10, nonverifier_alpha=0.1),
            invalid_rate=0.04 if with_invalid else 0.0,
            t_b=12.42,
            sim_duration=86_400.0,
            runs=20,
            base_seed=42,
        )
        return float(np.mean([nonverifier_gain(r, "fee") for r in run_many(config, fitted_workload)]))

    gain_8m = mean_fee_gain(8_000_000, with_invalid=True)
    assert gain_8m < 0, f"expected a loss at 8M, got {gain_8m:+.2f}%"
    assert 1.0 <= -gain_8m <= 10.0, f"loss magnitude {-gain_8m:.2f}% outside [1, 10]"

    gain_128m = mean_fee_gain(128_000_000, with_invalid=True)
    baseline_128m = mean_fee_gain(128_000_000, with_invalid=False)
    assert gain_128m > 0
    assert gain_128m <= 0.75 * baseline_128m, (
        f"gain {gain_128m:+.2f}% not 25% below baseline {baseline_128m:+.2f}%"
    )
    print(
        f"\n[criterion 6] PASS: 8M gain {gain_8m:+.2f}% (loss in [1,10]%), "
        f"128M gain {gain_128m:+.2f}% vs {baseline_128m:+.2f}% baseline "
        f"({100 * (1 - gain_128m / baseline_128m):.0f}% reduction)"
    )


def test_criterion_7_parallel_mitigation(fitted_workload):
    """8M, c=0.4: raising p from 2 to 16 cuts the non-verifier gain by >= 30%."""
    gains = {}
    for p in (2, 16):
        config = ScenarioConfig(
            block_limit=8_000_000,
            miners=standard_miners(10, nonverifier_alpha=0.1),
            mode="parallel",
            c=0.4,
            p=p,
            t_b=12.42,
            sim_duration=86_400.0,
            runs=20,
            base_seed=42,  # common random numbers across the two processor counts
        )
        gains[p] = float(
            np.mean([nonverifier_gain(r, "expected") for r in run_many(config, fitted_workload)])
        )
    reduction = 1.0 - gains[16] / gains[2]
    assert gains[2] > 0 and gains[16] > 0
    assert reduction >= 0.30, f"only {reduction:.0%} reduction"
    print(
        f"\n[criterion 7] PASS: gain {gains[2]:+.3f}% at p=2 vs {gains[16]:+.3f}% at p=16 "
        f"({reduction:.0%} reduction)"
    )


def test_criterion_8_property_suite(fitted_workload, toy_wl):
    """Conservation, scheduling bounds, chain validity, determinism, and
    model-quality properties."""
    checks = []

    # reward-fraction conservation to 1e-9
    config = ScenarioConfig(
        block_limit=8_000_000,
        miners=standard_miners(10, nonverifier_alpha=0.1),
        sim_duration=7200.0,
        base_seed=7,
    )
    result = run_simulation(config, fitted_workload)
    assert sum(m.fee_fraction for m in result.miners) == pytest.approx(1.0, abs=1e-9)
    assert sum(m.reward_fraction for m in result.miners) == pytest.approx(1.0, abs=1e-9)
    checks.append("conservation")

    # parallel time at p=1 equals sequential time exactly
    miner = MinerConfig(id="m", alpha=1.0)
    for seed in range(3):
        block = build_block(miner, fitted_workload, 8_000_000, rng_seed=seed)
        assert verification_time(block, "parallel", p=1) == verification_time(block, "sequential")
    checks.append("p=1 exact")

    # LPT makespan bounds on sampled blocks
    from verisim import kernels

    rng = np.random.default_rng(0)
    for _ in range(30):
        cpu = rng.lognormal(-5.5, 0.9, int(rng.integers(2, 150)))
        p = int(rng.integers(2, 17))
        makespan = kernels.lpt_makespan(cpu, p)
        assert makespan >= max(cpu.sum() / p, cpu.max()) - 1e-12
        assert makespan <= cpu.sum() / p + (1 - 1 / p) * cpu.max() + 1e-12
    checks.append("LPT bounds")

    # the canonical chain never contains invalid ancestry (independent walk)
    invalid_cfg = ScenarioConfig(
        block_limit=8_000_000,
        miners=standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.1),
        invalid_rate=0.1,
        sim_duration=14_400.0,
        base_seed=9,
    )
    res = run_simulation(invalid_cfg, fitted_workload)
    assert res.rejected_blocks > 0
    assert res.miner("punisher").canonical_blocks == 0
    checks.append("canonical validity")

    # bit-identical repeat of a full simulation
    assert run_simulation(config, fitted_workload) == result
    checks.append("seed determinism")

    # EM likelihood is non-decreasing iteration by iteration
    sample_rng = np.random.default_rng(3)
    mix = np.exp(
        np.where(sample_rng.random(3000) < 0.4, sample_rng.normal(1.0, 0.4, 3000),
                 sample_rng.normal(5.0, 0.6, 3000))
    )
    trace = []
    assert _em_once(np.log(mix), 2, np.random.default_rng(4), trace=trace) is not None
    diffs = np.diff(np.asarray(trace))
    assert np.all(diffs >= -1e-6 * (1.0 + np.abs(np.asarray(trace)[:-1])))
    checks.append("EM monotone")

    # sample -> fit round trip recovers well-separated log-means within 0.1
    truth = fit_gmm(mix, 2, 2, "bic", seed=5)
    big = sample_gmm_with(truth, 100_000, np.random.default_rng(6))
    refit = fit_gmm(big, 1, 4, "bic", seed=7)
    assert refit.k == 2
    assert refit.means[0] == pytest.approx(truth.means[0], abs=0.1)
    assert refit.means[1] == pytest.approx(truth.means[1], abs=0.1)
    checks.append("GMM round trip")

    # forest regression quality on held-out monotone data
    fit_rng = np.random.default_rng(8)
    xs = fit_rng.uniform(1e4, 8e6, 2000)
    knots, levels = np.asarray([1e4, 1e6, 3e6, 8e6]), np.asarray([0.01, 0.2, 0.25, 0.9])
    ys = np.interp(xs, knots, levels) + fit_rng.normal(0, 0.0445, 2000)
    d, s = fit_rfr(xs, ys, d_grid=[20, 50], s_grid=[8, 32], folds=10, seed=9)
    model = fit_forest(xs, ys, d, s, seed=9)
    x_test = fit_rng.uniform(1e4, 8e6, 1000)
    y_test = np.interp(x_test, knots, levels) + fit_rng.normal(0, 0.0445, 1000)
    r2 = regression_metrics(y_test, model.predict(x_test))["r2"]
    assert r2 >= 0.8
    checks.append(f"RFR R2={r2:.3f}")

    # fitted-model samples are indistinguishable from fresh samples (KS < 0.05)
    a = sample_transaction_arrays(fitted_workload, 10_000, 0.0, np.random.default_rng(10))["used_gas"]
    b = sample_transaction_arrays(fitted_workload, 10_000, 0.0, np.random.default_rng(11))["used_gas"]
    ks = distribution_distance(a, b)["ks_stat"]
    assert ks < 0.05
    checks.append(f"KS={ks:.4f}")

    print("\n[criterion 8] PASS: " + ", ".join(checks))
