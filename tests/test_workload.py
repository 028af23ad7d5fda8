import numpy as np
import pytest

from verisim.workload import MIN_TX_GAS, FittedWorkload, sample_transaction_arrays


def sample(workload, n, conflict_rate, seed, block_limit=None):
    return sample_transaction_arrays(workload, n, conflict_rate, np.random.default_rng(seed), block_limit)


class TestSampleTransactions:
    def test_zero_conflict_rate(self, toy_wl):
        assert not sample(toy_wl, 200, conflict_rate=0.0, seed=1)["conflicting"].any()

    def test_full_conflict_rate(self, toy_wl):
        assert sample(toy_wl, 200, conflict_rate=1.0, seed=2)["conflicting"].all()

    def test_conflict_fraction_concentrates(self, toy_wl):
        frac = sample(toy_wl, 10_000, conflict_rate=0.4, seed=3)["conflicting"].mean()
        assert 0.38 <= frac <= 0.42

    def test_gas_limit_bounds(self, toy_wl):
        cols = sample(toy_wl, 10_000, conflict_rate=0.4, seed=3)
        assert np.all(cols["used_gas"] <= cols["gas_limit"])
        assert np.all(cols["gas_limit"] <= 8_000_000)
        assert np.all(cols["used_gas"] >= MIN_TX_GAS)

    def test_record_invariants(self, toy_wl):
        # with test_gas_limit_bounds: every row would pass dataio.load_dataset's checks
        cols = sample(toy_wl, 10_000, conflict_rate=0.4, seed=4)
        assert np.all(cols["gas_price"] > 0)
        assert np.all(cols["cpu_time"] >= 0)

    def test_deterministic(self, toy_wl):
        a = sample(toy_wl, 50, conflict_rate=0.5, seed=7)
        b = sample(toy_wl, 50, conflict_rate=0.5, seed=7)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_block_limit_override(self, toy_wl):
        gas_limit = sample(toy_wl, 5000, conflict_rate=0.0, seed=5, block_limit=64_000_000)["gas_limit"]
        assert np.all(gas_limit <= 64_000_000)
        assert np.any(gas_limit > 8_000_000)

    def test_invalid_args(self, toy_wl):
        with pytest.raises(ValueError):
            sample(toy_wl, 0, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample(toy_wl, 10, 1.5, seed=0)

    def test_cpu_times_follow_model(self, toy_wl):
        cols = sample(toy_wl, 500, conflict_rate=0.0, seed=9)
        for used_gas, cpu_time in zip(cols["used_gas"][:50], cols["cpu_time"][:50]):
            assert cpu_time == pytest.approx(float(toy_wl.cpu_time_model.predict(int(used_gas))), rel=1e-12)


class TestPersistence:
    def test_json_round_trip(self, toy_wl, tmp_path):
        path = tmp_path / "workload.json"
        toy_wl.save(path)
        restored = FittedWorkload.load(path)
        assert restored.gas_price_model == toy_wl.gas_price_model
        assert restored.used_gas_model == toy_wl.used_gas_model
        assert restored.block_limit == toy_wl.block_limit
        grid = np.linspace(21_000, 8e6, 100)
        assert np.array_equal(restored.cpu_time_model.predict(grid), toy_wl.cpu_time_model.predict(grid))

    def test_round_trip_preserves_samples(self, toy_wl, tmp_path):
        path = tmp_path / "workload.json"
        toy_wl.save(path)
        restored = FittedWorkload.load(path)
        again, fresh = sample(restored, 20, 0.3, seed=11), sample(toy_wl, 20, 0.3, seed=11)
        assert all(np.array_equal(again[k], fresh[k]) for k in fresh)

    def test_byte_identical_save(self, toy_wl, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        toy_wl.save(p1)
        toy_wl.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_with_block_limit(self, toy_wl):
        wl2 = toy_wl.with_block_limit(128_000_000)
        assert wl2.block_limit == 128_000_000
        assert wl2.used_gas_model == toy_wl.used_gas_model
