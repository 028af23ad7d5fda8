import json
import math

import numpy as np
import pytest

from verisim.blocks import Block, make_genesis
from verisim.config import MinerConfig, ScenarioConfig, standard_miners
from verisim.sim import BLOCK_REWARD_ETHER, fork_choice, run_simulation


def chain_block(block_id, parent, valid=True, miner="x", ts=1.0):
    return Block(
        id=block_id,
        height=parent.height + 1,
        parent=parent,
        miner_id=miner,
        timestamp=ts,
        valid=valid,
        valid_ancestry=valid and parent.valid_ancestry,
    )


class TestForkChoice:
    def test_verifier_rejects_invalid_extension(self):
        genesis = make_genesis()
        bad = chain_block(1, genesis, valid=False)
        assert fork_choice(genesis, bad, verifies=True) is genesis

    def test_nonverifier_adopts_invalid_extension(self):
        genesis = make_genesis()
        bad = chain_block(1, genesis, valid=False)
        assert fork_choice(genesis, bad, verifies=False) is bad

    def test_verifier_rejects_valid_block_on_invalid_ancestor(self):
        genesis = make_genesis()
        bad = chain_block(1, genesis, valid=False)
        head = fork_choice(genesis, bad, verifies=True)
        junk = chain_block(2, bad, valid=True)
        assert fork_choice(head, junk, verifies=True) is genesis

    def test_tie_keeps_incumbent(self):
        genesis = make_genesis()
        first = chain_block(1, genesis, ts=1.0)
        second = chain_block(2, genesis, ts=2.0)
        head = fork_choice(genesis, first, verifies=True)
        assert head is first
        assert fork_choice(head, second, verifies=True) is first

    def test_longer_chain_wins(self):
        genesis = make_genesis()
        a1 = chain_block(1, genesis)
        head = fork_choice(genesis, a1, verifies=True)
        b1 = chain_block(2, genesis)
        head = fork_choice(head, b1, verifies=True)
        assert head is a1
        b2 = chain_block(3, b1)
        assert fork_choice(head, b2, verifies=True) is b2


def day_config(block_limit=8_000_000, duration=7200.0, seed=42, **kw):
    miners = kw.pop("miners", standard_miners(10))
    return ScenarioConfig(
        block_limit=block_limit,
        miners=miners,
        t_b=12.42,
        sim_duration=duration,
        runs=1,
        base_seed=seed,
        **kw,
    )


class TestRunSimulation:
    def test_single_miner_poisson_count(self, toy_wl):
        cfg = ScenarioConfig(
            block_limit=8_000_000,
            miners=(MinerConfig(id="solo", alpha=1.0),),
            t_b=12.42,
            sim_duration=86_400.0,
            base_seed=1,
        )
        res = run_simulation(cfg, toy_wl)
        expect = 86_400 / 12.42
        # 3 sigma of a Poisson count
        assert abs(res.total_blocks - expect) < 3 * np.sqrt(expect)
        assert res.canonical_length == res.total_blocks

    def test_fee_fractions_sum_to_one(self, toy_wl):
        res = run_simulation(day_config(seed=3), toy_wl)
        assert sum(m.fee_fraction for m in res.miners) == pytest.approx(1.0, abs=1e-9)
        assert sum(m.reward_fraction for m in res.miners) == pytest.approx(1.0, abs=1e-9)
        assert sum(m.expected_fraction for m in res.miners) == pytest.approx(1.0, abs=1e-9)

    def test_reward_conservation(self, toy_wl):
        res = run_simulation(day_config(seed=4), toy_wl)
        per_miner_fees = sum(m.fee_sum for m in res.miners)
        assert per_miner_fees == pytest.approx(res.total_fees, rel=1e-12)
        total_reward = res.total_fees + BLOCK_REWARD_ETHER * res.canonical_length
        reconstructed = sum(
            m.fee_sum + BLOCK_REWARD_ETHER * m.canonical_blocks for m in res.miners
        )
        assert reconstructed == pytest.approx(total_reward, rel=1e-12)

    def test_block_accounting_identity(self, toy_wl):
        cfg = day_config(miners=standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.04),
                         invalid_rate=0.04, duration=14_400.0, seed=5)
        res = run_simulation(cfg, toy_wl)
        assert res.canonical_length + res.stale_blocks + res.rejected_blocks == res.total_blocks
        assert res.rejected_blocks > 0

    def test_deterministic_repeat(self, toy_wl):
        cfg = day_config(seed=6)
        assert run_simulation(cfg, toy_wl) == run_simulation(cfg, toy_wl)

    def test_different_seeds_differ(self, toy_wl):
        a = run_simulation(day_config(seed=7), toy_wl)
        b = run_simulation(day_config(seed=8), toy_wl)
        assert a != b

    def test_symmetric_miners_near_alpha(self, toy_wl):
        # pooled across 50 short runs: each miner's canonical share within 3
        # binomial sigma of its power
        counts = np.zeros(10)
        total = 0
        for seed in range(50):
            res = run_simulation(day_config(duration=1800.0, seed=100 + seed), toy_wl)
            counts += np.asarray([m.canonical_blocks for m in res.miners])
            total += res.canonical_length
        share = counts / total
        sigma = np.sqrt(0.1 * 0.9 / total)
        assert np.all(np.abs(share - 0.1) < 3 * sigma)

    def test_canonical_chain_has_no_invalid_ancestry(self, toy_wl):
        cfg = day_config(
            miners=standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.1),
            invalid_rate=0.1,
            duration=14_400.0,
            seed=9,
        )
        res = run_simulation(cfg, toy_wl)
        punisher = res.miner("punisher")
        assert punisher.found_blocks > 0
        assert punisher.canonical_blocks == 0
        assert punisher.fee_sum == 0.0

    def test_verifiers_slowed_by_verification(self, toy_wl):
        # uptime-based expected share: the non-verifier must exceed its power
        cfg = day_config(
            block_limit=8_000_000,
            miners=standard_miners(10, nonverifier_alpha=0.1),
            duration=36_000.0,
            seed=10,
        )
        res = run_simulation(cfg, toy_wl)
        skip = res.miner("skip")
        assert skip.expected_fraction > 0.1
        for m in res.miners:
            if m.verifies:
                assert m.expected_fraction < m.alpha

    def test_missing_workload_errors(self):
        with pytest.raises(ValueError):
            run_simulation(day_config(seed=11))

    def test_tv_stats_reported(self, toy_wl):
        res = run_simulation(day_config(seed=12, duration=3600.0), toy_wl)
        stats = res.verification_time_stats
        assert 0 < stats["min"] <= stats["median"] <= stats["max"]
        assert stats["mean"] > 0
        assert stats["sd"] >= 0


class TestScenarioValidation:
    def test_alphas_must_sum(self, toy_wl):
        with pytest.raises(ValueError):
            ScenarioConfig(block_limit=8_000_000, miners=(MinerConfig(id="a", alpha=0.5),))

    def test_invalid_rate_requires_producer(self):
        with pytest.raises(ValueError):
            ScenarioConfig(block_limit=8_000_000, miners=standard_miners(10), invalid_rate=0.04)

    def test_producer_requires_rate(self):
        miners = standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.04)
        with pytest.raises(ValueError):
            ScenarioConfig(block_limit=8_000_000, miners=miners, invalid_rate=0.0)

    def test_producer_must_verify(self):
        with pytest.raises(ValueError):
            MinerConfig(id="bad", alpha=0.04, verifies=False, produces_invalid=True)

    def test_rate_out_of_range(self):
        miners = standard_miners(10, nonverifier_alpha=0.1, invalid_rate=0.04)
        with pytest.raises(ValueError):
            ScenarioConfig(block_limit=8_000_000, miners=miners, invalid_rate=0.6)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                block_limit=8_000_000,
                miners=(MinerConfig(id="a", alpha=0.5), MinerConfig(id="a", alpha=0.5)),
            )

    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in ("t_b", "sim_duration", "p", "runs")
            for value in (math.nan, math.inf, -math.inf)
        ]
        + [("p", 2.5), ("runs", 2.5), ("p", 16.0), ("runs", True)],
    )
    def test_non_finite_or_non_integral_rejected(self, name, value, tmp_path):
        scenario = {"block_limit": 8_000_000, "miners": [{"id": "solo", "alpha": 1.0}], name: value}
        with pytest.raises(ValueError, match=f"^{name} must"):
            ScenarioConfig.from_dict(scenario)
        # json writes and reads NaN and Infinity literals, so a scenario file can carry them
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        with pytest.raises(ValueError, match=f"^{name} must"):
            ScenarioConfig.from_json(path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("verifies", "false"),
            ("verifies", 0),
            ("verifies", None),
            ("produces_invalid", "true"),
            ("produces_invalid", 1),
            ("alpha", True),
            ("alpha", "1.0"),
            ("alpha", math.nan),
            ("alpha", math.inf),
            ("processors", 2.5),
            ("processors", 4.0),
            ("processors", True),
            ("processors", "4"),
            ("processors", 0),
        ],
    )
    def test_miner_field_types_rejected(self, name, value, tmp_path):
        scenario = {"block_limit": 8_000_000, "miners": [{"id": "solo", "alpha": 1.0, name: value}]}
        with pytest.raises(ValueError, match=f"^{name}"):
            ScenarioConfig.from_dict(scenario)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        with pytest.raises(ValueError, match=f"^{name}"):
            ScenarioConfig.from_json(path)
