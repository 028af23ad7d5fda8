import numpy as np
import pytest
from scipy import stats

from verisim.dataio import (
    generate_synthetic_dataset,
    load_dataset,
    write_dataset,
)


def write_rows(path, rows, header="used_gas,gas_price,cpu_time_s"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,2e-08,0.001", "50000,1e-08,0.002", "8000000,3e-08,0.0"])
        ds = load_dataset(p)
        assert len(ds) == 3
        assert ds.used_gas.tolist() == [21000, 50000, 8000000]

    def test_used_gas_above_block_limit(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,2e-08,0.001", "8000001,1e-08,0.002"])
        with pytest.raises(ValueError, match=r"^line 3: used_gas \(8000001\) exceeds block limit \(8000000\)"):
            load_dataset(p)

    def test_old_gas_limit_column_rejected(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,100000,2e-08,0.001"], header="used_gas,gas_limit,gas_price,cpu_time_s")
        with pytest.raises(ValueError, match="header"):
            load_dataset(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,2e-08,0.001", "21000,100000,2e-08,0.001"])
        with pytest.raises(ValueError, match="^line 3: expected 3 fields, got 4"):
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
        write_rows(p, ["21000,2e-08,0.001", "oops,1e-08,0.002"])
        with pytest.raises(ValueError, match="line 3"):
            load_dataset(p)

    def test_bad_gas_price(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,0.0,0.001"])
        with pytest.raises(ValueError, match="gas_price"):
            load_dataset(p)

    @pytest.mark.parametrize(
        ("row", "field"),
        [
            ("21000,2e-08,nan", "cpu_time_s"),
            ("21000,2e-08,inf", "cpu_time_s"),
            ("21000,inf,0.001", "gas_price"),
            ("21000,nan,0.001", "gas_price"),
        ],
    )
    def test_non_finite_rejected(self, tmp_path, row, field):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,2e-08,0.001", row])
        with pytest.raises(ValueError, match=f"line 3: {field}"):
            load_dataset(p)

    def test_exceeds_block_limit(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["9000000,1e-08,0.001"])
        with pytest.raises(ValueError, match="block limit"):
            load_dataset(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "ds.csv"
        write_rows(p, ["21000,1e-08,0.001"], header="a,b,c")
        with pytest.raises(ValueError, match="header"):
            load_dataset(p)


class TestRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        ds = generate_synthetic_dataset(500, seed=1)
        p = tmp_path / "ds.csv"
        write_dataset(ds, p)
        back = load_dataset(p)
        assert np.array_equal(back.used_gas, ds.used_gas)
        assert np.array_equal(back.gas_price, ds.gas_price)
        assert np.array_equal(back.cpu_time, ds.cpu_time)


class TestSyntheticGenerator:
    def test_deterministic(self):
        a = generate_synthetic_dataset(300, seed=5)
        b = generate_synthetic_dataset(300, seed=5)
        assert np.array_equal(a.used_gas, b.used_gas)
        assert np.array_equal(a.cpu_time, b.cpu_time)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            generate_synthetic_dataset(50, seed=0)

    @pytest.mark.parametrize("n", [50, 150.5, True])
    def test_size_must_be_an_integer_of_at_least_100(self, n):
        with pytest.raises(ValueError, match=r"^n must be an integer >= 100, got"):
            generate_synthetic_dataset(n, seed=0)

    def test_invariants_hold(self):
        ds = generate_synthetic_dataset(5000, seed=2)
        assert np.all(ds.used_gas >= 21_000)
        assert np.all(ds.used_gas <= 8_000_000)
        assert np.all(ds.gas_price > 0)
        assert np.all(ds.cpu_time >= 0)

    def test_gas_price_independent_of_gas(self):
        ds = generate_synthetic_dataset(100_000, seed=3)
        assert abs(stats.pearsonr(ds.gas_price, ds.used_gas).statistic) < 0.05

    def test_cpu_gas_relation_is_nonlinear_monotone(self):
        ds = generate_synthetic_dataset(100_000, seed=4)
        pe = stats.pearsonr(ds.used_gas, ds.cpu_time).statistic
        sp = stats.spearmanr(ds.used_gas, ds.cpu_time).statistic
        assert pe < sp
        assert sp > 0.5
