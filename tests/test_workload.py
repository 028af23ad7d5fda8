import dataclasses
import json
import os
import signal
import threading
import time
import weakref

import numpy as np
import pytest
from scipy.special import ndtr

from tests.helpers import mixture_workload, toy_workload
from verisim import gmm
from verisim.cli import main as cli_main
from verisim.dataio import generate_synthetic_dataset, load_dataset
from verisim.gmm import CELLS, GmmModel
from verisim.workload import (
    MAX_BLOCK_LIMIT,
    MIN_TX_GAS,
    FittedWorkload,
    empty_columns,
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

    @pytest.mark.parametrize("mixture", [False, True], ids=["k1", "k3"])
    @pytest.mark.parametrize("conflict_rate", [0.0, 0.4])
    @pytest.mark.parametrize("block_limit", [None, 64_000_000])
    def test_same_bits(self, toy_wl, mixture, conflict_rate, block_limit):
        wl = mixture_workload() if mixture else toy_wl
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


def serial_reference(workload, n, conflict_rate, seed):
    """Each column drawn alone from its child of ``rng.spawn(3)``: the price
    and used-gas children pick cells of their laws' tables, and the used gas
    is then rounded, clipped and priced by the forest."""
    price_rng, gas_rng, conflict_rng = np.random.default_rng(seed).spawn(3)
    raw_gas = workload.used_gas_model.cells()[gas_rng.integers(0, CELLS, n, dtype=np.uint16)]
    used_gas = np.clip(np.rint(raw_gas), MIN_TX_GAS, workload.block_limit).astype(np.int64)
    return {
        "used_gas": used_gas,
        "gas_price": workload.gas_price_model.cells()[price_rng.integers(0, CELLS, n, dtype=np.uint16)],
        "cpu_time": workload.cpu_time_model.predict(used_gas),
        "conflicting": conflict_rng.random(n) < conflict_rate if conflict_rate > 0 else np.zeros(n, dtype=bool),
    }


def assert_same_columns(got, want):
    assert got.keys() == want.keys()
    for k, col in want.items():
        assert got[k].dtype == col.dtype, k
        assert np.array_equal(got[k], col), k


class TestWorkerThread:
    """The sampler keeps no worker thread: every column is drawn on the
    calling thread with the bits of a serial draw, and every error reaches
    the caller."""

    @pytest.mark.parametrize("mixture", [False, True], ids=["k1", "k3"])
    @pytest.mark.parametrize("conflict_rate", [0.0, 0.4])
    @pytest.mark.parametrize("into_out", [False, True], ids=["fresh", "out"])
    def test_serial_bits(self, toy_wl, mixture, conflict_rate, into_out):
        wl = mixture_workload() if mixture else toy_wl
        out = empty_columns(4000) if into_out else None
        threads = threading.active_count()
        for seed in (3, 4):
            got = sample_transaction_arrays(wl, 4000, conflict_rate, np.random.default_rng(seed), out=out)
            assert_same_columns(got, serial_reference(wl, 4000, conflict_rate, seed))
        assert threading.active_count() == threads

    def test_worker_error_raised_and_next_call_draws(self, toy_wl, monkeypatch):
        # the price draw, once the worker's share, raises straight to the caller
        real = gmm.sample_gmm_with

        def fail_on_price(model, *args, **kwargs):
            if model is toy_wl.gas_price_model:
                raise FloatingPointError("price draw failed")
            return real(model, *args, **kwargs)

        monkeypatch.setattr("verisim.workload.sample_gmm_with", fail_on_price)
        with pytest.raises(FloatingPointError, match="price draw failed"):
            sample(toy_wl, 1000, 0.4, seed=5)
        monkeypatch.undo()
        assert_same_columns(sample(toy_wl, 1000, 0.4, seed=5), serial_reference(toy_wl, 1000, 0.4, 5))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_the_same_bits(self, toy_wl):
        # the parent's first draw builds the sampling tables, which the child inherits
        before = sample(toy_wl, 5000, 0.4, seed=7)
        pid = os.fork()
        if pid == 0:
            status = 2
            try:
                again = sample(toy_wl, 5000, 0.4, seed=7)
                status = 0 if all(np.array_equal(again[k], before[k]) for k in before) else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 20
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's draw did not finish in 20 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0


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


def exact_limit_means(workload, limit):
    """Mean used gas and CPU time per transaction of the continuous used-gas
    law clipped to [MIN_TX_GAS, limit], from scipy's normal CDF: the clip
    bounds' atoms, the partial expectation between them, and the mass
    between each two of the forest's step bounds."""
    model, forest = workload.used_gas_model, workload.cpu_time_model
    w, m = np.asarray(model.weights), np.asarray(model.means)
    s = np.sqrt(np.asarray(model.variances))

    def cdf(x, shift=0.0):
        return (w * np.exp(shift * (m + 0.5 * s * s)) * ndtr((np.log(x)[:, None] - m) / s - shift * s)).sum(axis=1)

    ends = np.asarray([MIN_TX_GAS, limit], dtype=np.float64)
    (lo, hi), (partial_lo, partial_hi) = cdf(ends), cdf(ends, shift=1.0)
    gas = MIN_TX_GAS * lo + (partial_hi - partial_lo) + limit * (1.0 - hi)
    forest.predict(0.0)  # merges the trees into one step function
    bounds = forest._bounds
    # value j applies for bounds[j - 1] < g <= bounds[j]
    at_or_below = np.where(bounds < MIN_TX_GAS, 0.0, np.where(bounds >= limit, 1.0, cdf(np.clip(bounds, *ends))))
    cpu = np.diff(np.concatenate(([0.0], at_or_below, [1.0]))) @ forest._values
    return gas, cpu


class TestLimitCells:
    """A workload's per-limit table: the used-gas cells rounded and clipped
    to the limit, each with the forest's CPU time."""

    @pytest.mark.parametrize("limit", [8_000_000, 32_000_000, 128_000_000])
    def test_keeps_the_continuous_laws_means(self, fitted_workload, limit):
        gas, cpu = fitted_workload.limit_cells(limit)
        want_gas, want_cpu = exact_limit_means(fitted_workload, limit)
        assert gas.mean() == pytest.approx(want_gas, rel=1e-3, abs=0.0)
        assert cpu.mean() == pytest.approx(want_cpu, rel=1e-3, abs=0.0)

    def test_cells_are_the_laws_rounded_clipped_and_priced(self):
        wl = mixture_workload()
        gas, cpu = wl.limit_cells(64_000_000)
        assert wl.limit_cells(64_000_000)[0] is gas
        want = np.clip(np.rint(wl.used_gas_model.cells()), MIN_TX_GAS, 64_000_000).astype(np.int64)
        assert np.array_equal(gas, want)
        assert np.array_equal(cpu, wl.cpu_time_model.predict(want))
        assert gas.max() > 8_000_000

    def test_no_table_is_built_by_a_load(self, toy_wl, tmp_path):
        toy_wl.save(tmp_path / "workload.json")
        loaded = FittedWorkload.load(tmp_path / "workload.json")
        assert loaded._limit_cells == {}
        assert loaded.used_gas_model._cells is None and loaded.gas_price_model._cells is None

    def test_tables_die_with_their_models(self):
        refs = []
        for i in range(20):
            wl = toy_workload(mean_gas=40_000.0 + 1_000.0 * i)
            sample_transaction_arrays(wl, 10, 0.4, np.random.default_rng(i), 64_000_000)
            assert wl.used_gas_model._cells is not None and 64_000_000 in wl._limit_cells
            refs += [weakref.ref(m) for m in (wl, wl.used_gas_model, wl.gas_price_model, wl.cpu_time_model)]
            del wl
        assert [r for r in refs if r() is not None] == []


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
