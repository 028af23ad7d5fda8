import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import toy_workload
from verisim.cli import _load_scenarios
from verisim.config import MinerConfig, ScenarioConfig, standard_miners
from verisim.sim import BLOCK_REWARD_ETHER, GENESIS, Head, fork_choice, run_simulation
from verisim.workload import MAX_BLOCK_LIMIT


def on_top(parent, valid=True):
    """The head of a block mined on ``parent``."""
    return Head(parent.height + 1, valid and parent.valid_ancestry)


class TestForkChoice:
    def test_verifier_rejects_invalid_extension(self):
        bad = on_top(GENESIS, valid=False)
        assert fork_choice(GENESIS, bad, verifies=True) == GENESIS

    def test_nonverifier_adopts_invalid_extension(self):
        bad = on_top(GENESIS, valid=False)
        assert fork_choice(GENESIS, bad, verifies=False) == bad

    def test_verifier_rejects_valid_block_on_invalid_ancestor(self):
        bad = on_top(GENESIS, valid=False)
        head = fork_choice(GENESIS, bad, verifies=True)
        junk = on_top(bad, valid=True)
        assert not junk.valid_ancestry
        assert fork_choice(head, junk, verifies=True) == GENESIS

    def test_tie_keeps_incumbent(self):
        first = on_top(GENESIS)
        head = fork_choice(GENESIS, first, verifies=False)
        assert head == first
        # an equally long chain does not displace the incumbent, whatever its validity
        assert fork_choice(head, on_top(GENESIS, valid=False), verifies=False) == first
        assert fork_choice(on_top(GENESIS, valid=False), first, verifies=False) == Head(1, False)

    def test_longer_chain_wins(self):
        a1 = on_top(GENESIS)
        head = fork_choice(GENESIS, a1, verifies=True)
        b1 = on_top(GENESIS)
        head = fork_choice(head, b1, verifies=True)
        assert head == a1
        b2 = on_top(b1)
        assert fork_choice(head, b2, verifies=True) == b2


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


# values of the wrong type, and the non-finite floats, for any field
WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
# boundary and out-of-range values of the right type; any value here that a
# config accepts keeps the run short
SCENARIO_EDGES = {
    "block_limit": st.one_of(st.integers(-1, 128_000_000), st.floats(-1.0, 128e6)),
    "t_b": st.one_of(st.floats(-1.0, 0.0), st.floats(1.0, 60.0), st.integers(-1, 60)),
    "mode": st.sampled_from(["sequential", "parallel", "Parallel", ""]),
    "c": st.floats(-0.5, 1.5),
    "p": st.one_of(st.integers(-1, 64), st.floats(0.0, 64.0)),
    "invalid_rate": st.floats(-0.5, 0.6),
    "sim_duration": st.one_of(st.floats(-1.0, 600.0), st.integers(-1, 600)),
    "runs": st.one_of(st.integers(-1, 50), st.floats(0.0, 50.0)),
    "base_seed": st.one_of(st.integers(-5, 2**64), st.floats(-1.0, 10.0)),
    "workload": st.text(max_size=5),
    "miners": st.lists(st.dictionaries(st.sampled_from(["id", "alpha"]), st.just(1.0)), max_size=2),
}
MINER_EDGES = {
    "id": st.text(max_size=3),
    "alpha": st.floats(-0.5, 1.5),
    "verifies": st.booleans(),
    "processors": st.one_of(st.none(), st.integers(-1, 32), st.floats(0.0, 32.0)),
    "produces_invalid": st.booleans(),
}


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

    @pytest.mark.parametrize("mode, scenario, own", [("sequential", 1, 1), ("parallel", 16, 4)])
    def test_processors_for(self, mode, scenario, own):
        override = MinerConfig(id="own", alpha=0.5, processors=4)
        cfg = ScenarioConfig(
            block_limit=8_000_000, miners=(override, MinerConfig(id="default", alpha=0.5)), mode=mode, p=16
        )
        assert cfg.processors_for() == cfg.processors_for(cfg.miners[1]) == scenario
        assert cfg.processors_for(override) == own

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
        + [("p", 2.5), ("runs", 2.5), ("p", 16.0), ("runs", True)]
        + [("block_limit", 8e6), ("block_limit", math.nan), ("block_limit", True), ("block_limit", 20_999)]
        + [("base_seed", 1.5), ("base_seed", "x"), ("base_seed", -1), ("base_seed", False)]
        + [("c", "0.4"), ("invalid_rate", None), ("workload", 5), ("miners", {"id": "solo"})]
        + [("miners", [{"id": "solo"}])]
        + [("block_limit", MAX_BLOCK_LIMIT + 1), ("runs", 10**12)],
    )
    def test_non_finite_or_non_integral_rejected(self, name, value, tmp_path):
        scenario = {"block_limit": 8_000_000, "miners": [{"id": "solo", "alpha": 1.0}], name: value}
        with pytest.raises(ValueError, match=f"^{name} must"):
            ScenarioConfig.from_dict(scenario)
        # json writes and reads NaN and Infinity literals, so a scenario file can carry them
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        with pytest.raises(ValueError, match=f"^{name} must"):
            _load_scenarios(path)

    def test_unbounded_blocks_per_run_rejected(self):
        # each value is finite and positive, but the run would never end
        with pytest.raises(ValueError, match="^sim_duration must"):
            ScenarioConfig(block_limit=8_000_000, miners=standard_miners(10), t_b=1e-300, sim_duration=1e300)

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
            ("id", 5),
        ],
    )
    def test_miner_field_types_rejected(self, name, value, tmp_path):
        scenario = {"block_limit": 8_000_000, "miners": [{"id": "solo", "alpha": 1.0, name: value}]}
        with pytest.raises(ValueError, match=f"^{name}"):
            ScenarioConfig.from_dict(scenario)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        with pytest.raises(ValueError, match=f"^{name}"):
            _load_scenarios(path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_from_dict_rejects_or_simulates(self, data):
        """A scenario either fails with ValueError or runs to completion.

        Inputs stay small so that every accepted one runs quickly: block
        limits up to 128M, at most 600 s simulated, 1 to 12 miners, and a
        valid t_b of at least 1 s.
        """
        n = data.draw(st.integers(1, 12), label="miners")
        miners = [{"id": f"m{i}", "alpha": 1.0 / n} for i in range(n)]
        if n >= 2 and data.draw(st.booleans(), label="skip"):
            miners[0]["verifies"] = False
        invalid = n >= 3 and data.draw(st.booleans(), label="invalid producer")
        if invalid:
            miners[-1]["produces_invalid"] = True
        scenario = {
            "block_limit": data.draw(st.integers(21_000, 128_000_000)),
            "t_b": data.draw(st.floats(1.0, 60.0)),
            "mode": data.draw(st.sampled_from(["sequential", "parallel"])),
            "c": data.draw(st.floats(0.0, 1.0)),
            "p": data.draw(st.integers(1, 32)),
            "invalid_rate": 1.0 / n if invalid else 0.0,
            "sim_duration": data.draw(st.floats(1.0, 600.0)),
            "runs": 1,
            "base_seed": data.draw(st.integers(0, 2**64)),
            "miners": miners,
        }
        for _ in range(data.draw(st.integers(0, 2), label="edits")):
            target = data.draw(st.sampled_from([scenario] + miners), label="target")
            edges = SCENARIO_EDGES if target is scenario else MINER_EDGES
            key = data.draw(st.sampled_from(sorted(edges) + ["extra"]), label="key")
            if key in target and data.draw(st.booleans(), label="delete"):
                del target[key]
            else:
                target[key] = data.draw(st.one_of(edges.get(key, st.nothing()), WRONG_TYPES), label=key)
        try:
            config = ScenarioConfig.from_dict(scenario)
        except ValueError:
            return
        result = run_simulation(config, toy_workload())
        assert result.seed == config.base_seed
        assert [m.id for m in result.miners] == [m.id for m in config.miners]
        assert result.canonical_length + result.rejected_blocks == result.total_blocks