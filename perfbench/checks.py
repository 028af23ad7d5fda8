"""Correctness gate.  Every check returns a list of failure messages; empty means pass.

The closed form is computed here rather than through
``verisim.scenario.closed_form_gain``: for parallel cells that function is
handed the *parallel* mean verification time and applies the
``c + (1 - c) / p`` discount a second time.  The paper's parallel formula
takes the sequential time, so the gate measures that and feeds it in.
"""

import numpy as np

from verisim import analytics, workload

FRACTION_TOL = 1e-9
CLOSED_FORM_REL_TOL = 0.25  # acceptance criterion 4


def check_sim(result) -> list:
    """Conservation and chain validity of one simulation run."""
    failures = []
    fee_sum = sum(m.fee_fraction for m in result.miners)
    reward_sum = sum(m.reward_fraction for m in result.miners)
    if result.total_fees > 0 and abs(fee_sum - 1.0) > FRACTION_TOL:
        failures.append(f"seed {result.seed}: fee fractions sum to {fee_sum!r}")
    if abs(reward_sum - 1.0) > FRACTION_TOL:
        failures.append(f"seed {result.seed}: reward fractions sum to {reward_sum!r}")
    accounted = result.canonical_length + result.stale_blocks + result.rejected_blocks
    if accounted != result.total_blocks:
        failures.append(f"seed {result.seed}: canonical+stale+rejected = {accounted} != {result.total_blocks} blocks")
    for m in result.miners:
        if m.produces_invalid and m.canonical_blocks:
            failures.append(f"seed {result.seed}: invalid producer {m.id} owns {m.canonical_blocks} canonical blocks")
    return failures


def closed_form_gain_pct(config, sequential_tv: float) -> float:
    """Closed-form relative gain (%) of the non-verifying power at the sequential mean t_v."""
    profile = analytics.PowerProfile.make((m.id, m.alpha, m.verifies) for m in config.miners)
    params = analytics.VerificationParams(t_v=sequential_tv, t_b=config.t_b, c=config.c, p=config.p)
    skipped = [r for r in analytics.reward_table(profile, params, mode=config.mode) if not r.verifies]
    alpha = sum(r.alpha for r in skipped)
    return 100.0 * (sum(r.expected_fraction for r in skipped) - alpha) / alpha


def expected_gain_pct(results) -> float:
    """Mean over runs of the uptime-weighted share gain (%) of the non-verifying power."""
    gains = []
    for result in results:
        skipped = [m for m in result.miners if not m.verifies]
        alpha = sum(m.alpha for m in skipped)
        gains.append(100.0 * (sum(m.expected_fraction for m in skipped) - alpha) / alpha)
    return float(np.mean(gains))


def check_cell(config, results, sequential_tv: float) -> list:
    closed = closed_form_gain_pct(config, sequential_tv)
    simulated = expected_gain_pct(results)
    rel = abs(closed - simulated) / abs(closed)
    if not rel <= CLOSED_FORM_REL_TOL:
        return [f"cell seed {config.base_seed}: closed form {closed:+.4f}% vs simulated {simulated:+.4f}% ({rel:.0%} off)"]
    return []


def check_round_trip(original, loaded) -> list:
    """The saved-and-loaded model predicts and samples exactly like the original."""
    failures = []
    gas = np.geomspace(21_000, 128_000_000, 257)
    if not np.array_equal(original.cpu_time_model.predict(gas), loaded.cpu_time_model.predict(gas)):
        failures.append("loaded forest predicts differently from the fitted one")
    fresh = workload.sample_transaction_arrays(original, 4096, 0.5, np.random.default_rng(0))
    again = workload.sample_transaction_arrays(loaded, 4096, 0.5, np.random.default_rng(0))
    for column, values in fresh.items():
        if not np.array_equal(values, again[column]):
            failures.append(f"loaded model samples a different {column} column")
    return failures
