import dataclasses
import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import bootstrap_weights, forest_oracle
from verisim import forest
from verisim.forest import TABLE_SIZE, ForestModel, RegressionTree, fit_forest, fit_rfr
from verisim.stats import regression_metrics
from verisim.workload import FittedWorkload

KNOTS = np.asarray([1e4, 1e6, 3e6, 8e6])
LEVELS = np.asarray([0.01, 0.2, 0.25, 0.9])


def monotone_sample(n, seed, noise=True):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(1e4, 8e6, n)
    ys = np.interp(xs, KNOTS, LEVELS)
    if noise:
        ys = ys + rng.normal(0, 0.05 * (LEVELS.max() - LEVELS.min()), n)
    return xs, ys


class TestFitRfr:
    def test_monotone_synthetic_r2(self):
        xs, ys = monotone_sample(2000, seed=1)
        d, s = fit_rfr(xs, ys, d_grid=[20, 50], s_grid=[8, 32], folds=10, seed=2)
        model = fit_forest(xs, ys, d, s, seed=2)
        xt, yt = monotone_sample(1000, seed=3)
        assert regression_metrics(yt, model.predict(xt))["r2"] >= 0.8

    def test_constant_target(self):
        # every cell scores R^2 = 0, so the earliest cell wins the tie
        xs = np.linspace(1, 100, 50)
        ys = np.full(50, 0.5)
        assert fit_rfr(xs, ys, d_grid=[5, 6], s_grid=[3], folds=5, seed=0) == (5, 3)
        assert fit_forest(xs, ys, 5, 3, seed=0).predict(17.0) == pytest.approx(0.5)

    def test_leave_one_out_boundary(self):
        # single-sample folds score 0 by convention: the earliest cell wins
        xs = np.linspace(1, 10, 10)
        ys = xs * 2.0
        assert fit_rfr(xs, ys, d_grid=[4, 8], s_grid=[2], folds=10, seed=1) == (4, 2)

    def test_fewer_samples_than_folds(self):
        with pytest.raises(ValueError):
            fit_rfr([1.0, 2.0], [1.0, 2.0], d_grid=[2], s_grid=[1], folds=10, seed=0)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            fit_rfr([1.0] * 20, [1.0] * 20, d_grid=[], s_grid=[1], folds=2, seed=0)

    @pytest.mark.parametrize(
        "sizes, field",
        [
            (dict(d_grid=[2.5, 3]), "d_grid"),
            (dict(d_grid=[True]), "d_grid"),
            (dict(s_grid=[4.0]), "s_grid"),
            (dict(folds=2.5), "folds"),
            (dict(folds=1), "folds"),
        ],
    )
    def test_bad_sizes_named_before_any_tree(self, monkeypatch, sizes, field):
        # int() would truncate 2.5 to 2 and read True as 1
        def grow(*args):
            raise AssertionError("a tree was grown before the sizes were checked")

        monkeypatch.setattr(forest, "_fit_forest_sorted", grow)
        xs, ys = monotone_sample(50, seed=22)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            fit_rfr(xs, ys, **(dict(d_grid=[2, 3], s_grid=[4], folds=5, seed=0) | sizes))

    @pytest.mark.parametrize(
        "tree_count, split_budget, field",
        [(2.5, 4, "tree_count"), (True, 4, "tree_count"), (0, 4, "tree_count"), (2, 2.5, "split_budget")],
    )
    def test_forest_sizes_named_before_any_tree(self, monkeypatch, tree_count, split_budget, field):
        def grow(*args):
            raise AssertionError("a tree was grown before the sizes were checked")

        monkeypatch.setattr(forest, "_grow_tree", grow)
        xs, ys = monotone_sample(50, seed=22)
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            fit_forest(xs, ys, tree_count, split_budget)

    def test_one_cell_grid_grows_no_tree(self, monkeypatch):
        def grow(*args):
            raise AssertionError("a one-cell grid needs no cross-validation")

        monkeypatch.setattr(forest, "_fit_forest_sorted", grow)
        xs, ys = monotone_sample(50, seed=22)
        assert fit_rfr(xs, ys, d_grid=[100], s_grid=[64], folds=5, seed=0) == (100, 64)
        with pytest.raises(ValueError, match="folds"):
            fit_rfr(xs[:3], ys[:3], d_grid=[100], s_grid=[64], folds=5, seed=0)

    def test_deterministic(self):
        xs, ys = monotone_sample(300, seed=4)
        a = fit_rfr(xs, ys, d_grid=[5, 10], s_grid=[4], folds=5, seed=5)
        b = fit_rfr(xs, ys, d_grid=[5, 10], s_grid=[4], folds=5, seed=5)
        assert a == b
        assert fit_forest(xs, ys, *a, seed=5).to_dict() == fit_forest(xs, ys, *b, seed=5).to_dict()

    def test_monotone_ordering_preserved(self):
        xs, ys = monotone_sample(2000, seed=6)
        d, s = fit_rfr(xs, ys, d_grid=[30], s_grid=[16, 32], folds=5, seed=7)
        low, high = fit_forest(xs, ys, d, s, seed=7).predict([1e5, 7e6])
        assert low < high


FIT_IN_SUBPROCESS = """
import json, sys
from tests.test_forest import monotone_sample
from verisim.forest import fit_forest
xs, ys = monotone_sample(24_000, seed=40)
json.dump(fit_forest(xs, ys, 3, 8, seed=41).to_dict(), sys.stdout)
"""

# the mixture M-step is a BLAS product whose reduction runs over all rows
GMM_IN_SUBPROCESS = """
import json, sys
from verisim.dataio import generate_synthetic_dataset
from verisim.gmm import fit_gmm
used_gas = generate_synthetic_dataset(24_000, seed=42).used_gas
json.dump(fit_gmm(used_gas, 1, 6, seed=43).to_dict(), sys.stdout)
"""


def test_forest_independent_of_blas_threads():
    # a long BLAS dot is split across threads, which moves the last bits of
    # a leaf mean; neither fit may depend on the thread count
    root = pathlib.Path(__file__).resolve().parent.parent
    for snippet in (FIT_IN_SUBPROCESS, GMM_IN_SUBPROCESS):
        fits = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root), env.get("PYTHONPATH", "")])
            run = subprocess.run(
                [sys.executable, "-c", snippet], env=env, cwd=root, capture_output=True, text=True, check=True
            )
            fits.append(json.loads(run.stdout))
        assert fits[0] == fits[1]


# zeros of both signs, negatives, and magnitudes far enough apart that a
# cumulative sum loses the small terms
Y_ATOMS = [0.0, -0.0, 1.0, -1.0, 0.1, 0.3, -2.5, 7.0, 1e8, 3e-9]


@st.composite
def sorted_rows(draw):
    """x-sorted rows: x with many ties; y from a few values, zeros and
    negatives among them, so that runs of equal y and equal gains are common."""
    n = draw(st.integers(2, 80))
    top = draw(st.integers(0, 40))
    x = sorted(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)))
    palette = draw(st.lists(st.one_of(st.sampled_from(Y_ATOMS), st.floats(-1e3, 1e3)), min_size=1, max_size=4))
    y = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    if draw(st.booleans()):
        y.sort(reverse=draw(st.booleans()))
    return np.asarray(x, dtype=np.float64), np.asarray(y)


def grown_and_oracle(x, y, tree_count, split_budget, seed):
    grown = forest._fit_forest_sorted(x, y, tree_count, split_budget, np.random.SeedSequence(seed))
    oracle = forest_oracle(x, y, tree_count, split_budget, np.random.SeedSequence(seed))
    return json.dumps(grown.to_dict()), json.dumps(oracle.to_dict())


class TestForestOracle:
    """The forest grown on the positive-weight rows is the one the plain
    every-row recipe grows, bit for bit (the JSON keeps the sign of a zero)."""

    @settings(max_examples=400, deadline=None)
    @given(sorted_rows(), st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, rows, tree_count, split_budget, seed):
        x, y = rows
        grown, oracle = grown_and_oracle(x, y, tree_count, split_budget, seed)
        assert grown == oracle

    def test_zero_weight_sides_excluded(self):
        # a tree whose bootstrap leaves out both end rows sees constant y
        # among its rows: no split may isolate the zero-weight ends
        x = np.arange(6.0)
        y = np.asarray([5.0, 0.0, 0.0, 0.0, 0.0, 9.0])
        grown, oracle = grown_and_oracle(x, y, 40, 4, seed=3)
        assert grown == oracle
        weights = bootstrap_weights(x.size, np.random.SeedSequence(3), 40)
        trees = json.loads(grown)["trees"]
        ends_out = [t for t, w in zip(trees, weights) if w[0] == 0 and w[-1] == 0]
        assert ends_out
        assert all(t["left"] == [-1] and t["values"] == [0.0] for t in ends_out)


class TestPredict:
    def test_single_leaf(self):
        tree = RegressionTree(np.asarray([0.0]), np.asarray([-1]), np.asarray([-1]), np.asarray([0.2]))
        model = ForestModel(1, 1, [tree])
        assert model.predict(123.0) == pytest.approx(0.2)
        assert model.predict(1e9) == pytest.approx(0.2)

    def test_three_tree_mean(self):
        trees = [
            RegressionTree(np.asarray([0.0]), np.asarray([-1]), np.asarray([-1]), np.asarray([v]))
            for v in (0.1, 0.2, 0.3)
        ]
        model = ForestModel(3, 1, trees)
        assert model.predict(1e6) == pytest.approx(0.2)

    def test_prediction_is_mean_of_trees(self):
        xs, ys = monotone_sample(500, seed=8)
        model = fit_forest(xs, ys, tree_count=7, split_budget=10, seed=9)
        for x in (2e4, 5e5, 2e6, 7.9e6):
            assert model.predict(x) == pytest.approx(np.mean([t.predict_one(x) for t in model.trees]), rel=1e-12)

    def test_tree_order_permutation_invariant(self):
        xs, ys = monotone_sample(400, seed=10)
        model = fit_forest(xs, ys, tree_count=6, split_budget=8, seed=11)
        shuffled = ForestModel(model.tree_count, model.split_budget, list(reversed(model.trees)))
        grid = np.linspace(1e4, 8e6, 50)
        assert np.allclose(model.predict(grid), shuffled.predict(grid), rtol=1e-12)

    def test_bounded_by_leaf_range(self):
        xs, ys = monotone_sample(400, seed=12)
        model = fit_forest(xs, ys, tree_count=5, split_budget=12, seed=13)
        leaves = np.concatenate([t.values[t.left < 0] for t in model.trees])
        grid = np.linspace(1.0, 1e7, 200)
        preds = model.predict(grid)
        assert np.all(preds >= leaves.min() - 1e-12)
        assert np.all(preds <= leaves.max() + 1e-12)


class TestTreeStructure:
    def test_split_budget_respected(self):
        xs, ys = monotone_sample(600, seed=14)
        for budget in (1, 5, 17):
            model = fit_forest(xs, ys, tree_count=4, split_budget=budget, seed=15)
            assert all(np.count_nonzero(t.left >= 0) <= budget for t in model.trees)
            assert model.split_budget == budget

    def test_serialization_round_trip(self):
        xs, ys = monotone_sample(300, seed=16)
        model = fit_forest(xs, ys, tree_count=3, split_budget=6, seed=17)
        restored = ForestModel.from_dict(model.to_dict())
        grid = np.linspace(1e4, 8e6, 64)
        assert np.array_equal(model.predict(grid), restored.predict(grid))

    def test_step_function_consistent_with_walk(self):
        xs, ys = monotone_sample(500, seed=18)
        model = fit_forest(xs, ys, tree_count=1, split_budget=9, seed=19)
        tree = model.trees[0]
        for x in np.linspace(1e4, 8e6, 101):
            assert model.predict(x) == pytest.approx(tree.predict_one(x), rel=1e-12)

    def test_replaced_tree_or_forest_builds_its_own_step_function(self):
        tree = chain_tree(np.asarray([1.0, 2.0]))
        bumped = dataclasses.replace(tree, values=tree.values + 1.0)
        assert np.array_equal(bumped.as_step_function()[1], tree.as_step_function()[1] + 1.0)
        model = ForestModel(1, 2, [tree])
        x = np.asarray([0.5, 1.5, 2.5])
        before = model.predict(x)
        assert np.array_equal(dataclasses.replace(model, trees=[bumped]).predict(x), before + 1.0)


def search_reference(model, x):
    """The prediction by binary search alone, which the integer table must reproduce."""
    model._ensure_merged()
    return model._values[np.searchsorted(model._bounds, np.asarray(x, dtype=np.float64), side="left")]


@functools.cache
def integer_gas_forest():
    # integer inputs put bounds on integers and half-integers; some lie past TABLE_SIZE
    rng = np.random.default_rng(20)
    xs = np.rint(rng.uniform(1e4, 1.5 * TABLE_SIZE, 600))
    ys = xs * 1e-9 + rng.normal(0, 1e-4, xs.size)
    return fit_forest(xs, ys, tree_count=4, split_budget=40, seed=21)


def near_bounds(model):
    model._ensure_merged()
    return [int(np.floor(b)) + d for b in model._bounds for d in (-1, 0, 1)]


def chain_tree(thresholds):
    # node 2j splits at thresholds[j]; its left child is a leaf, its right child the next split
    m = thresholds.size
    n = 2 * m + 1
    split = np.arange(0, 2 * m, 2)
    left = np.full(n, -1)
    right = np.full(n, -1)
    left[split] = split + 1
    right[split] = split + 2
    th = np.zeros(n)
    th[split] = thresholds
    values = np.arange(n, dtype=np.float64)
    return RegressionTree.from_dict(
        {"thresholds": th.tolist(), "left": left.tolist(), "right": right.tolist(), "values": values.tolist()}
    )


INTEGERS = st.one_of(
    st.integers(-5, 2 * TABLE_SIZE),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([0, TABLE_SIZE - 1, TABLE_SIZE, TABLE_SIZE + 1]),
)
NON_INTEGERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-5, 2 * TABLE_SIZE).map(lambda k: k + 0.5),
    st.floats(-10.0, 2.0 * TABLE_SIZE),
)


class TestIntegerTable:
    @settings(max_examples=200)
    @given(
        values=st.lists(INTEGERS, min_size=1, max_size=30),
        dtype=st.sampled_from(["int64", "int32", "int16", "uint64", "uint32", "uint8"]),
        data=st.data(),
    )
    def test_integers_match_search(self, values, dtype, data):
        model = integer_gas_forest()
        values += data.draw(st.lists(st.sampled_from(near_bounds(model)), max_size=30))
        info = np.iinfo(dtype)
        x = np.asarray([min(max(v, info.min), info.max) for v in values], dtype=dtype)
        assert np.array_equal(model.predict(x), search_reference(model, x))
        assert np.array_equal(model.predict(x.reshape(1, -1)), search_reference(model, x.reshape(1, -1)))

    @settings(max_examples=200)
    @given(values=st.lists(NON_INTEGERS, min_size=1, max_size=30))
    def test_non_integers_match_search(self, values):
        model = integer_gas_forest()
        assert np.array_equal(model.predict(values), search_reference(model, values))

    @given(value=st.one_of(INTEGERS, NON_INTEGERS))
    def test_zero_dimensional_matches_search(self, value):
        model = integer_gas_forest()
        expected = search_reference(model, float(value))
        assert np.ndim(model.predict(value)) == 0
        assert model.predict(value) == expected
        if isinstance(value, int):
            assert model.predict(np.int64(value)) == expected

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_predict_into_out(self, dtype):
        model = integer_gas_forest()
        x = np.concatenate([np.arange(-5, 3 * TABLE_SIZE, 1237), near_bounds(model)]).astype(dtype)
        buf = np.full(x.size, np.nan)
        assert model.predict(x, out=buf) is buf
        assert np.array_equal(buf, model.predict(x))

    def test_python_int_list_uses_table(self):
        model = integer_gas_forest()
        gas = list(range(0, 2 * TABLE_SIZE, 997))
        assert np.array_equal(model.predict(gas), search_reference(model, gas))
        assert model._table is not None and model._table.size == TABLE_SIZE

    def test_wide_table_past_65535_bounds(self):
        m = 70_000
        thresholds = np.arange(m) * 16.0 + np.where(np.arange(m) % 2, 0.5, 0.0)
        model = ForestModel(1, m, [chain_tree(thresholds)])
        x = np.concatenate([np.arange(-3, TABLE_SIZE + 40_000, 7), np.floor(thresholds).astype(np.int64) + 1])
        assert np.array_equal(model.predict(x), search_reference(model, x))
        assert model._bounds.size == m
        assert model._table.dtype == np.uint32


class TestModelFiles:
    SPLIT = {"thresholds": [5e4, 0.0, 0.0], "left": [1, -1, -1], "right": [2, -1, -1], "values": [0.0, 0.1, 0.3]}

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"left": [1, 0, -1], "right": [2, 2, -1]}, "left/right"),  # node 1 points back at node 0
            ({"left": [1, 1, -1], "right": [2, 1, -1]}, "left/right"),  # node 1 is its own child
            ({"right": [3, -1, -1]}, "left/right"),  # past the last node
            ({"left": [-2, -1, -1], "right": [-2, -1, -1]}, "left/right"),
            ({"left": [-1, -1, -1], "right": [2, -1, -1]}, "left/right"),  # half a leaf
            ({"left": [1.5, -1, -1]}, "left"),
            ({"thresholds": [float("nan"), 0.0, 0.0]}, "thresholds"),
            ({"values": [0.0, float("inf"), 0.3]}, "values"),
            ({"values": [0.0, 0.1]}, "equal lengths"),
            ({"thresholds": [], "left": [], "right": [], "values": []}, "thresholds"),
            ({"values": [0.0, -0.245, 0.3]}, "values must be non-negative"),
        ],
    )
    def test_malformed_tree_rejected(self, change, field):
        with pytest.raises(ValueError, match=field):
            ForestModel.from_dict({"tree_count": 1, "split_budget": 1, "trees": [dict(self.SPLIT, **change)]})

    def test_decreasing_thresholds_rejected(self):
        # root splits at 5 and its left child at 8: x = 3 walks to the leaf
        # worth 1.0, but the merged step function would read 3.0
        tree = {"thresholds": [5.0, 8.0, 0.0, 0.0, 0.0], "left": [1, 3, -1, -1, -1], "right": [2, 4, -1, -1, -1],
                "values": [0.0, 0.0, 3.0, 1.0, 2.0]}
        with pytest.raises(ValueError, match=r"^thresholds: .*non-decreasing, got 8\.0 before 5\.0"):
            ForestModel.from_dict({"tree_count": 1, "split_budget": 2, "trees": [tree]})

    @pytest.mark.parametrize(
        "tree, node",
        [
            # node 2 hangs under both the root and node 1
            ({"thresholds": [4.0, 3.0, 5.0, 0.0, 0.0], "left": [1, 3, 3, -1, -1], "right": [2, 2, 4, -1, -1]}, 2),
            # both children of every node are the next node: the walk would double 40 times
            ({"thresholds": [1.0] * 41, "left": [*range(1, 41), -1], "right": [*range(1, 41), -1]}, 1),
        ],
    )
    def test_shared_node_rejected(self, tree, node):
        tree = dict(tree, values=[0.5] * len(tree["left"]))
        with pytest.raises(ValueError, match=f"^left/right: node {node} is the child of more than one node"):
            ForestModel.from_dict({"tree_count": 1, "split_budget": 2, "trees": [tree]})

    def test_cyclic_tree_in_a_model_file_rejected(self, toy_wl, tmp_path):
        path = tmp_path / "workload.json"
        toy_wl.save(path)
        payload = json.loads(path.read_text())
        tree = payload["cpu_time_model"]["trees"][0]
        tree["left"][0] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="left/right: node 0"):
            FittedWorkload.load(path)
