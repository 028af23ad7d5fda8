import numpy as np
import pytest

from verisim.dataio import (
    generate_synthetic_dataset,
    load_dataset,
    write_dataset,
)
from verisim.stats import pearson, spearman


def write_rows(path, rows, header="used_gas,gas_limit,gas_price,cpu_time_s"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,100000,2e-08,0.001", "50000,50000,1e-08,0.002", "30000,8000000,3e-08,0.0"])
        ds = load_dataset(p)
        assert len(ds) == 3
        assert ds.used_gas.tolist() == [21000, 50000, 30000]

    def test_gas_limit_below_used_gas(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,100000,2e-08,0.001", "60000,50000,1e-08,0.002"])
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, [])
        with pytest.raises(ValueError, match="empty dataset"):
            load_dataset(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "ds.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty dataset"):
            load_dataset(p)

    def test_malformed_value(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,100000,2e-08,0.001", "oops,50000,1e-08,0.002"])
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(p)

    def test_bad_gas_price(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,100000,0.0,0.001"])
        with pytest.raises(ValueError, match="gas_price"):
            load_dataset(p)

    def test_exceeds_block_limit(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,9000000,1e-08,0.001"])
        with pytest.raises(ValueError, match="block limit"):
            load_dataset(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,100000,1e-08,0.001"], header="a,b,c,d")
        with pytest.raises(ValueError, match="header"):
            load_dataset(p)


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        ds = generate_synthetic_dataset(500, "execution", seed=1)
        p = tmp_path / "ds.csv"
        write_dataset(ds, p)
        back = load_dataset(p)
        assert np.array_equal(back.used_gas, ds.used_gas)
        assert np.array_equal(back.gas_limit, ds.gas_limit)
        assert np.array_equal(back.gas_price, ds.gas_price)
        assert np.array_equal(back.cpu_time, ds.cpu_time)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_synthetic_dataset(300, "execution", seed=5)
        b = generate_synthetic_dataset(300, "execution", seed=5)
        assert np.array_equal(a.used_gas, b.used_gas)
        assert np.array_equal(a.cpu_time, b.cpu_time)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(50, "execution", seed=0)

    def test_unknown_partition(self):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(200, "transfer", seed=0)

    def test_invariants_hold(self):
        ds = generate_synthetic_dataset(5000, "execution", seed=2)
        assert np.all(ds.used_gas >= 21_000)
        assert np.all(ds.gas_limit >= ds.used_gas)
        assert np.all(ds.gas_limit <= 8_000_000)
        assert np.all(ds.gas_price > 0)
        assert np.all(ds.cpu_time >= 0)

    def test_gas_price_independent_of_gas(self):
        ds = generate_synthetic_dataset(100_000, "execution", seed=3)
        assert abs(pearson(ds.gas_price, ds.used_gas)) < 0.05

    def test_cpu_gas_relation_is_nonlinear_monotone(self):
        ds = generate_synthetic_dataset(100_000, "execution", seed=4)
        pe = pearson(ds.used_gas, ds.cpu_time)
        sp = spearman(ds.used_gas, ds.cpu_time)
        assert pe < sp
        assert sp > 0.5

    def test_creation_partition_differs(self):
        ex = generate_synthetic_dataset(2000, "execution", seed=6)
        cr = generate_synthetic_dataset(2000, "creation", seed=6)
        assert cr.used_gas.mean() > ex.used_gas.mean()
