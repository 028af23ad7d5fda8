"""The event loop against a reference: the per-miner vector loop.

``reference_run`` is the simulator's earlier event loop, which keeps every
miner's pending find, busy-until and in-window busy time in numpy vectors and
updates all of them on every block.  ``run_simulation`` must find the same
blocks in the same order, so every count and every fee matches bit for bit.
Only the uptime behind ``expected_fraction`` may differ, because its float
additions run in another order; it must agree to 1e-12 relative.
"""

import dataclasses

import numpy as np
import pytest

from tests.helpers import toy_workload
from verisim.blocks import TxStream
from verisim.config import MinerConfig, ScenarioConfig, standard_miners
from verisim.sim import FIND_DRAWS, GENESIS, Head, _finalize, fork_choice, run_simulation

# the fields that must keep their bits, per miner and per run
MINER_EXACT = (
    "id",
    "alpha",
    "verifies",
    "produces_invalid",
    "found_blocks",
    "canonical_blocks",
    "fee_sum",
    "fee_fraction",
    "reward_fraction",
    "relative_gain_pct",
)
RUN_EXACT = ("seed", "total_blocks", "canonical_length", "stale_blocks", "rejected_blocks", "total_fees")
EXPECTED_REL = 1e-12


def reference_run(config, workload):
    """The vector event loop: its result, and each miner's final busy-until."""
    root = np.random.SeedSequence(config.base_seed)
    mine_ss, tx_ss = root.spawn(2)
    rng_mine = np.random.default_rng(mine_ss)

    miners = config.miners
    duration = config.sim_duration
    n = len(miners)
    # the verification cost that verifiers pay, then a 0 that non-verifiers pay
    costs = np.zeros(2)
    slot = np.asarray([0 if m.verifies else 1 for m in miners])
    p = config.processors_for() if any(m.verifies for m in miners) else 1
    stream = TxStream(workload, config.c, np.random.default_rng(tx_ss), config.block_limit, p)

    scales = [1.0 / (m.alpha / config.t_b) for m in miners]
    next_find = np.asarray([rng_mine.exponential(scale) for scale in scales])
    busy_until = np.zeros(n)
    busy_in_window = np.zeros(n)
    # per-block buffers, rewritten in place
    paid, start, inside = np.empty(n), np.empty(n), np.empty(n)
    # standard exponentials for the find times, next one last (module docstring)
    draws = []
    argmin = next_find.argmin

    # per miner: blocks found, blocks of valid ancestry and their fees
    found, canon, fees = [0] * n, [0] * n, [0.0] * n
    v_head = s_head = GENESIS
    while True:
        i = int(argmin())
        t = float(next_find[i])
        if t > duration:
            break
        miner = miners[i]
        parent = v_head if miner.verifies else s_head
        # the new block, as the head of the chain it ends
        block = Head(parent.height + 1, parent.valid_ancestry and not miner.produces_invalid)
        packed = stream.next_block_txs()
        costs[0] = packed["time"]
        found[i] += 1
        if block.valid_ancestry:
            canon[i] += 1
            fees[i] += packed["total_fee"]

        # every node applies the block under its own rule; the producer
        # adopts its own block without re-executing it
        v_head = fork_choice(v_head, block, True)
        s_head = fork_choice(s_head, block, False)
        if not draws:
            draws = rng_mine.standard_exponential(FIND_DRAWS).tolist()[::-1]
        next_find[i] = t + scales[i] * draws.pop()

        # re-execution requires the parent's post-state: blocks extending
        # invalid ancestry are rejected without cost, while invalid blocks on
        # valid parents cost full verification before rejection
        if parent.valid_ancestry:
            costs.take(slot, out=paid)
            paid[i] = 0.0
            # a miner that pays nothing stays idle: its pause adds 0 everywhere
            np.maximum(busy_until, t, out=start)
            np.add(start, paid, out=busy_until)
            # only the part of the pause inside the window counts
            np.minimum(busy_until, duration, out=inside)
            inside -= np.minimum(start, duration, out=start)
            busy_in_window += inside
            # mining is suspended while verifying: push the pending find back
            next_find += paid

    uptime = [float(duration - busy) for busy in busy_in_window]
    return _finalize(config, found, canon, fees, v_head, uptime), busy_until


def _config(miners, duration=3600.0, seed=42, block_limit=8_000_000, **kw):
    return ScenarioConfig(
        block_limit=block_limit, miners=miners, sim_duration=duration, runs=1, base_seed=seed, **kw
    )


# verification pauses of ~18 s at 8M, longer than the 12.42 s block
# interval: pauses queue up, and the last ones run past the end of the window
LONG_PAUSES = dict(cpu_per_gas=2e-6)

CASES = {
    "miners_1": (_config((MinerConfig(id="solo", alpha=1.0),), seed=101), {}),
    "miners_2": (_config(standard_miners(2, 0.4), seed=102), {}),
    "miners_10": (_config(standard_miners(10, 0.1), duration=14400.0, seed=103), {}),
    "miners_100": (_config(standard_miners(100, 0.1), seed=104), {}),
    "miners_1000": (_config(standard_miners(1000, 0.1), duration=1800.0, seed=105), {}),
    "parallel_c04_p16": (_config(standard_miners(10, 0.1), seed=106, mode="parallel", c=0.4, p=16), {}),
    "two_nonverifiers": (
        _config(
            tuple(dataclasses.replace(m, verifies=False) if m.id == "v1" else m for m in standard_miners(10, 0.2)),
            seed=107,
            mode="parallel",
            c=0.4,
            p=16,
        ),
        {},
    ),
    "invalid_004": (_config(standard_miners(10, 0.1, invalid_rate=0.04), seed=108, invalid_rate=0.04), {}),
    "invalid_02": (_config(standard_miners(10, 0.3, invalid_rate=0.2), seed=109, invalid_rate=0.2), {}),
    "invalid_004_128m": (
        _config(
            standard_miners(10, 0.1, invalid_rate=0.04),
            duration=1800.0,
            seed=110,
            block_limit=128_000_000,
            invalid_rate=0.04,
        ),
        {},
    ),
    "long_pauses": (_config(standard_miners(10, 0.3), duration=1800.0, seed=111), LONG_PAUSES),
}


@pytest.fixture(scope="module")
def pairs():
    out = {}
    for name, (cfg, wl_kw) in CASES.items():
        wl = toy_workload(**wl_kw)
        out[name] = (run_simulation(cfg, wl), *reference_run(cfg, wl))
    return out


def assert_matches(result, expected):
    assert expected.total_blocks > 0
    for field in RUN_EXACT:
        assert repr(getattr(result, field)) == repr(getattr(expected, field)), field
    assert len(result.miners) == len(expected.miners)
    for got, want in zip(result.miners, expected.miners):
        for field in MINER_EXACT:
            assert repr(getattr(got, field)) == repr(getattr(want, field)), (got.id, field)
        assert got.expected_fraction == pytest.approx(want.expected_fraction, rel=EXPECTED_REL, abs=0.0), got.id


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(name, pairs):
    result, expected, _ = pairs[name]
    assert_matches(result, expected)


def test_long_pauses_cross_the_window_both_ways():
    # Verifiers whose last find came before their class's final busy period
    # end it together, at the largest busy-until; one whose last find fell
    # inside that period skipped its own block and ends earlier.  Both must
    # occur, with the pauses running past the end of the window, in a run
    # that matches the reference.  Whether a run shows both rests on its
    # draws (about one seed in four), so the first of 32 seeds from the
    # case's own that shows both is checked.
    cfg, wl_kw = CASES["long_pauses"]
    wl = toy_workload(**wl_kw)
    for seed in range(cfg.base_seed, cfg.base_seed + 32):
        run = cfg.with_seed(seed)
        expected, busy_until = reference_run(run, wl)
        verifier_busy = [b for m, b in zip(run.miners, busy_until) if m.verifies]
        last = max(verifier_busy)
        ended_together = sum(b == last for b in verifier_busy) >= 2
        if last > run.sim_duration and ended_together and any(run.sim_duration < b < last for b in verifier_busy):
            assert_matches(run_simulation(run, wl), expected)
            return
    pytest.fail(f"no seed in [{cfg.base_seed}, {cfg.base_seed + 32}) had pauses cross the window both ways")
