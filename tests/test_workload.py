import dataclasses
import json

import numpy as np
import pytest

from verisim import gmm
from verisim.cli import main as cli_main
from verisim.dataio import generate_synthetic_dataset, load_dataset
from verisim.gmm import GmmModel
from verisim.workload import (
    MAX_BLOCK_LIMIT,
    MIN_TX_GAS,
    FittedWorkload,
    fit_cpu_time_model,
    fit_workload,
    sample_transaction_arrays,
)


def sample(workload, n, conflict_rate, seed, block_limit=None):
    return sample_transaction_arrays(workload, n, conflict_rate, np.random.default_rng(seed), block_limit)


def lognormal(mean, variance=0.25):
    return GmmModel(k=1, weights=(1.0,), means=(float(np.log(mean)),), variances=(variance,),
                    log_likelihood=0.0, aic=0.0, bic=0.0, n=1)


class TestSampleTransactions:
    def test_zero_conflict_rate(self, toy_wl):
        assert not sample(toy_wl, 200, conflict_rate=0.0, seed=1)["conflicting"].any()

    def test_full_conflict_rate(self, toy_wl):
        assert sample(toy_wl, 200, conflict_rate=1.0, seed=2)["conflicting"].all()

    def test_conflict_fraction_concentrates(self, toy_wl):
        frac = sample(toy_wl, 10_000, conflict_rate=0.4, seed=3)["conflicting"].mean()
        assert 0.38 <= frac <= 0.42

    def test_sampled_csv_loads(self, toy_wl, tmp_path):
        # `verisim sample` writes the sampled columns; its CSV must load
        model, out = tmp_path / "toy.json", tmp_path / "sampled.csv"
        toy_wl.save(model)
        assert cli_main(["sample", "--model", str(model), "--n", "10000", "--seed", "3", "--out", str(out)]) == 0
        ds = load_dataset(out)
        fresh = sample(toy_wl, 10_000, conflict_rate=0.0, seed=3)
        assert np.array_equal(ds.used_gas, fresh["used_gas"])
        assert np.array_equal(ds.gas_price, fresh["gas_price"])
        assert np.array_equal(ds.cpu_time, fresh["cpu_time"])
        assert np.all((ds.used_gas >= MIN_TX_GAS) & (ds.used_gas <= 8_000_000))

    def test_record_invariants(self, toy_wl):
        cols = sample(toy_wl, 10_000, conflict_rate=0.4, seed=4)
        assert np.all(cols["gas_price"] > 0)
        assert np.all(cols["cpu_time"] >= 0)

    def test_deterministic(self, toy_wl):
        a = sample(toy_wl, 50, conflict_rate=0.5, seed=7)
        b = sample(toy_wl, 50, conflict_rate=0.5, seed=7)
        assert a.keys() == b.keys()
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_block_limit_override(self, toy_wl):
        # used gas around 2e7 only shows the override if the clamp moves with it
        big = dataclasses.replace(toy_wl, used_gas_model=lognormal(2e7))
        assert np.all(sample(big, 5000, conflict_rate=0.0, seed=5)["used_gas"] <= 8_000_000)
        used_gas = sample(big, 5000, conflict_rate=0.0, seed=5, block_limit=64_000_000)["used_gas"]
        assert np.all(used_gas <= 64_000_000)
        assert np.any(used_gas > 8_000_000)

    def test_invalid_args(self, toy_wl):
        with pytest.raises(ValueError, match="^block_limit must"):
            sample(toy_wl, 10, 0.0, seed=0, block_limit=100)

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_size_must_be_an_integer(self, toy_wl, n):
        with pytest.raises(ValueError, match="^n must be an integer >= 1"):
            sample(toy_wl, n, 0.0, seed=0)

    @pytest.mark.parametrize("conflict_rate", [True, float("nan"), -0.1, 1.5])
    def test_conflict_rate_must_lie_in_the_unit_interval(self, toy_wl, conflict_rate):
        with pytest.raises(ValueError, match="^conflict_rate must"):
            sample(toy_wl, 10, conflict_rate, seed=0)

    def test_cpu_times_follow_model(self, toy_wl):
        cols = sample(toy_wl, 500, conflict_rate=0.0, seed=9)
        for used_gas, cpu_time in zip(cols["used_gas"][:50], cols["cpu_time"][:50]):
            assert cpu_time == pytest.approx(float(toy_wl.cpu_time_model.predict(int(used_gas))), rel=1e-12)


class TestOutBuffers:
    """Drawing into caller buffers gives the bits of drawing into fresh arrays."""

    MIXTURE = GmmModel(k=3, weights=(0.6, 0.3, 0.1), means=(10.6, 11.9, 15.6), variances=(0.25, 0.25, 0.64),
                       log_likelihood=0.0, aic=0.0, bic=0.0, n=1)
    PRICES = GmmModel(k=2, weights=(0.4, 0.6), means=(-18.0, -17.0), variances=(0.1, 0.2),
                      log_likelihood=0.0, aic=0.0, bic=0.0, n=1)

    @pytest.mark.parametrize("mixture", [False, True], ids=["k1", "k3"])
    @pytest.mark.parametrize("conflict_rate", [0.0, 0.4])
    @pytest.mark.parametrize("block_limit", [None, 64_000_000])
    def test_same_bits(self, toy_wl, mixture, conflict_rate, block_limit):
        wl = toy_wl
        if mixture:
            wl = dataclasses.replace(toy_wl, used_gas_model=self.MIXTURE, gas_price_model=self.PRICES)
        n = 5000
        # views into larger arrays, pre-filled so that an unwritten row shows
        out = {
            "used_gas": np.full(n + 3, -1, dtype=np.int64)[2:-1],
            "gas_price": np.full(n + 3, np.nan)[2:-1],
            "cpu_time": np.full(n + 3, np.nan)[2:-1],
            "conflicting": np.ones(n + 3, dtype=bool)[2:-1],
        }
        got = sample_transaction_arrays(wl, n, conflict_rate, np.random.default_rng(13), block_limit, out=out)
        fresh = sample(wl, n, conflict_rate, seed=13, block_limit=block_limit)
        assert got is out
        for k, col in fresh.items():
            assert out[k].dtype == col.dtype
            assert np.array_equal(out[k], col), k
        if block_limit is not None and mixture:
            assert np.any(fresh["used_gas"] > 8_000_000)


class TestColumnStreams:
    """Each column draws from its own stream, spawned from the caller's generator."""

    def test_columns(self, toy_wl):
        assert set(sample(toy_wl, 10, 0.3, seed=1)) == {"used_gas", "gas_price", "cpu_time", "conflicting"}

    def test_used_gas_ignores_the_price_model(self, toy_wl):
        two = GmmModel(k=2, weights=(0.4, 0.6), means=(-18.0, -17.0), variances=(0.1, 0.2),
                       log_likelihood=0.0, aic=0.0, bic=0.0, n=1)
        one = sample(toy_wl, 2000, 0.3, seed=6)
        other = sample(dataclasses.replace(toy_wl, gas_price_model=two), 2000, 0.3, seed=6)
        assert not np.array_equal(one["gas_price"], other["gas_price"])
        for column in ("used_gas", "cpu_time", "conflicting"):
            assert np.array_equal(one[column], other[column])

    def test_conflict_rate_moves_only_the_flags(self, toy_wl):
        none, some = sample(toy_wl, 2000, 0.0, seed=8), sample(toy_wl, 2000, 0.4, seed=8)
        for column in ("used_gas", "gas_price", "cpu_time"):
            assert np.array_equal(none[column], some[column])
        assert some["conflicting"].any()

    def test_root_generator_not_drawn_from(self, toy_wl):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        sample_transaction_arrays(toy_wl, 100, 0.4, rng)
        assert rng.random() == ref.random()


def test_cpu_time_model_is_the_workload_forest(monkeypatch):
    # a CV subsample below the row count runs the subsample-then-refit path
    monkeypatch.setattr("verisim.workload.CV_SUBSAMPLE", 400)
    ds = generate_synthetic_dataset(800, seed=3)
    forest = fit_cpu_time_model(ds.used_gas, ds.cpu_time, d_grid=[3, 5], s_grid=[4], folds=2, seed=9)
    whole = fit_workload(
        ds.used_gas, ds.gas_price, ds.cpu_time, k_max=2,
        tree_count=forest.tree_count, split_budget=forest.split_budget, seed=9,
    )
    assert forest.to_dict() == whole.cpu_time_model.to_dict()


@pytest.mark.parametrize(
    "sizes, field",
    [(dict(seed=-1), "seed"), (dict(seed=1.5), "seed"), (dict(tree_count=2.5), "tree_count"),
     (dict(split_budget=2.5), "split_budget")],
)
def test_fit_workload_names_bad_sizes_before_fitting(monkeypatch, sizes, field):
    def em(*args):
        raise AssertionError("a mixture was fitted before the sizes were checked")

    monkeypatch.setattr(gmm, "_em_once", em)
    ds = generate_synthetic_dataset(300, seed=4)
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        fit_workload(ds.used_gas, ds.gas_price, ds.cpu_time, **(dict(k_max=2, tree_count=2, split_budget=4) | sizes))


def test_each_mixture_is_refit_by_one_em_run(monkeypatch):
    monkeypatch.setattr("verisim.workload.GMM_SUBSAMPLE", 300)
    ds = generate_synthetic_dataset(600, seed=4)
    rows = []
    real = gmm._em_once

    def em(x, *args):
        rows.append(x.size)
        return real(x, *args)

    monkeypatch.setattr(gmm, "_em_once", em)
    fit_workload(ds.used_gas, ds.gas_price, ds.cpu_time, k_max=3, tree_count=2, split_budget=4, seed=5)
    # the searches run EM_RESTARTS runs per K on the subsample; each refit one on all rows
    assert rows.count(600) == 2
    assert set(rows) == {300, 600}


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

    @pytest.mark.parametrize("block_limit", [100, MAX_BLOCK_LIMIT + 1, 8e6, "8000000"])
    def test_bad_block_limit_in_a_model_file_rejected(self, toy_wl, tmp_path, block_limit):
        path = tmp_path / "workload.json"
        toy_wl.save(path)
        payload = json.loads(path.read_text())
        payload["block_limit"] = block_limit
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="^block_limit must"):
            FittedWorkload.load(path)

    @pytest.mark.parametrize("seed", [7.9, "7", True, -3, None])
    def test_bad_seed_in_a_model_file_rejected(self, toy_wl, tmp_path, seed):
        path = tmp_path / "workload.json"
        toy_wl.save(path)
        payload = json.loads(path.read_text())
        payload["seed"] = seed
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="^seed must"):
            FittedWorkload.load(path)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            # a missing key, at each level
            (("used_gas_model",), None, "workload"),
            (("used_gas_model", "k"), None, "used_gas_model"),
            (("cpu_time_model", "trees"), None, "cpu_time_model"),
            (("cpu_time_model", "trees", 0, "left"), None, "trees"),
            # an unknown key, at each level
            (("format",), 1, "workload"),
            (("gas_price_model", "sd"), [0.3], "gas_price_model"),
            (("cpu_time_model", "depth"), 4, "cpu_time_model"),
            (("cpu_time_model", "trees", 0, "parent"), [-1, 0, 0], "trees"),
            # a list where an object belongs
            ((), [], "workload"),
            (("used_gas_model",), [], "used_gas_model"),
            (("cpu_time_model",), [], "cpu_time_model"),
            (("cpu_time_model", "trees", 0), [], "trees"),
            # a number where a list belongs
            (("used_gas_model", "weights"), 5, "weights"),
            (("cpu_time_model", "trees"), 5, "trees"),
            (("cpu_time_model", "trees", 0, "left"), 5, "left"),
            # a true or a nested list inside a tree array
            (("cpu_time_model", "trees", 0, "left"), [True, -1, -1], "left"),
            (("cpu_time_model", "trees", 0, "values"), [0.0, [0.1], 0.3], "values"),
            # integer fields
            *(
                ((model, name), value, name)
                for model, name in [
                    ("gas_price_model", "k"),
                    ("used_gas_model", "n"),
                    ("cpu_time_model", "tree_count"),
                    ("cpu_time_model", "split_budget"),
                ]
                for value in (True, "7", 2.7)
            ),
            (("used_gas_model", "weights"), ["1.0"], "weights"),
            (("cpu_time_model", "tree_count"), 2, "tree_count"),
        ],
    )
    def test_malformed_model_file_names_the_field(self, toy_wl, tmp_path, path, value, field):
        """``value`` None drops the key at ``path``; the empty path is the whole file."""
        file = tmp_path / "workload.json"
        toy_wl.save(file)
        payload = json.loads(file.read_text())
        if path:
            *parents, last = path
            target = payload
            for key in parents:
                target = target[key]
            if value is None:
                del target[last]
            else:
                target[last] = value
        else:
            payload = value
        file.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"^{field} "):
            FittedWorkload.load(file)
