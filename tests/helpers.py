import dataclasses
import heapq

import numpy as np

from verisim.forest import ForestModel, RegressionTree
from verisim.gmm import GmmModel
from verisim.workload import FittedWorkload


def toy_workload(cpu_per_gas: float = 2.5e-9, mean_gas: float = 50_000.0) -> FittedWorkload:
    """Hand-built models: lognormal gas, constant price scale, stepped cpu map.

    Avoids any fitting cost in tests that only exercise packing and timing.
    """
    gas = GmmModel(
        k=1,
        weights=(1.0,),
        means=(float(np.log(mean_gas)),),
        variances=(0.25,),
        log_likelihood=0.0,
        aic=0.0,
        bic=0.0,
        n=1,
    )
    price = GmmModel(
        k=1,
        weights=(1.0,),
        means=(float(np.log(2e-8)),),
        variances=(0.09,),
        log_likelihood=0.0,
        aic=0.0,
        bic=0.0,
        n=1,
    )
    # two-leaf tree: cpu steps up with gas, roughly cpu_per_gas * gas
    tree = RegressionTree(
        thresholds=np.asarray([100_000.0, 0.0, 0.0]),
        left=np.asarray([1, -1, -1]),
        right=np.asarray([2, -1, -1]),
        values=np.asarray([0.0, cpu_per_gas * 50_000, cpu_per_gas * 200_000]),
    )
    forest = ForestModel(tree_count=1, split_budget=1, trees=[tree])
    return FittedWorkload(gas_price_model=price, used_gas_model=gas, cpu_time_model=forest)


# a three-component used gas (a heavy tail above 8M) and a two-component price
MIXTURE_GAS = GmmModel(k=3, weights=(0.6, 0.3, 0.1), means=(10.6, 11.9, 15.6), variances=(0.25, 0.25, 0.64),
                       log_likelihood=0.0, aic=0.0, bic=0.0, n=1)
MIXTURE_PRICES = GmmModel(k=2, weights=(0.4, 0.6), means=(-18.0, -17.0), variances=(0.1, 0.2),
                          log_likelihood=0.0, aic=0.0, bic=0.0, n=1)


def mixture_workload() -> FittedWorkload:
    """The toy workload with mixture used gas and prices, so that each draw
    picks components before its normals."""
    return dataclasses.replace(toy_workload(), used_gas_model=MIXTURE_GAS, gas_price_model=MIXTURE_PRICES)


def forbid_draws(monkeypatch) -> None:
    """Make every generator ``np.random.default_rng`` returns fail on first
    use, so a call that reaches one raises AssertionError, not its own error."""

    class Undrawable:
        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} was used: a draw began before the inputs were checked")

    monkeypatch.setattr(np.random, "default_rng", lambda *args, **kwargs: Undrawable())


def _oracle_best_split(x, y, w, lo, hi):
    """Best variance-reduction split of the segment [lo, hi) of x-sorted data,
    scanned over every row: ``(pos, gain)`` with [lo, pos) left, or (-1, 0.0)."""
    m = hi - lo
    if m < 2:
        return -1, 0.0
    xs = x[lo:hi]
    ys = y[lo:hi]
    ws = w[lo:hi]
    wy = ws * ys
    cw = np.cumsum(ws)
    cs = np.cumsum(wy)
    w_tot = cw[-1]
    s_tot = cs[-1]
    if w_tot <= 0.0:
        return -1, 0.0
    w_left = cw[:-1]
    s_left = cs[:-1]
    w_right = w_tot - w_left
    s_right = s_tot - s_left
    valid = (xs[1:] > xs[:-1]) & (w_left > 0.0) & (w_right > 0.0)
    if not np.any(valid):
        return -1, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = s_left**2 / w_left + s_right**2 / w_right - s_tot**2 / w_tot
    gains = np.where(valid, gains, -np.inf)
    j = int(np.argmax(gains))
    gain = float(gains[j])
    if gain <= 0.0:
        return -1, 0.0
    return lo + j + 1, gain


def _oracle_weighted_mean(y, w, lo, hi):
    ws = w[lo:hi]
    return float(np.sum(y[lo:hi] * ws) / ws.sum())


def _oracle_grow_tree(x_sorted, y_sorted, weights, split_budget) -> RegressionTree:
    thresholds = [0.0]
    left = [-1]
    right = [-1]
    values = [_oracle_weighted_mean(y_sorted, weights, 0, x_sorted.size)]

    # candidate heap: (-gain, tie counter, node, lo, hi, split position)
    heap = []
    counter = 0
    pos, gain = _oracle_best_split(x_sorted, y_sorted, weights, 0, x_sorted.size)
    if pos >= 0:
        heap.append((-gain, counter, 0, 0, x_sorted.size, pos))
        counter += 1
    splits = 0
    while heap and splits < split_budget:
        _, _, node, lo, hi, pos = heapq.heappop(heap)
        threshold = 0.5 * (x_sorted[pos - 1] + x_sorted[pos])
        for seg_lo, seg_hi in ((lo, pos), (pos, hi)):
            thresholds.append(0.0)
            left.append(-1)
            right.append(-1)
            values.append(_oracle_weighted_mean(y_sorted, weights, seg_lo, seg_hi))
        li, ri = len(values) - 2, len(values) - 1
        thresholds[node] = threshold
        left[node] = li
        right[node] = ri
        splits += 1
        for child, seg_lo, seg_hi in ((li, lo, pos), (ri, pos, hi)):
            cpos, cgain = _oracle_best_split(x_sorted, y_sorted, weights, seg_lo, seg_hi)
            if cpos >= 0:
                heapq.heappush(heap, (-cgain, counter, child, seg_lo, seg_hi, cpos))
                counter += 1
    return RegressionTree(
        thresholds=np.asarray(thresholds, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
    )


def bootstrap_weights(n, seed_seq, tree_count) -> list:
    """Each tree's bootstrap multiplicities, drawn as ``forest._fit_forest_sorted`` draws them."""
    return [np.bincount(np.random.default_rng(child).integers(0, n, n), minlength=n).astype(np.float64)
            for child in seed_seq.spawn(tree_count)]


def forest_oracle(x_sorted, y_sorted, tree_count, split_budget, seed_seq) -> ForestModel:
    """The forest ``forest._fit_forest_sorted`` must grow, bit for bit, by the
    plain recipe: every tree scans all rows of every node, zero-weight rows
    included, and takes fresh cumulative sums for each node."""
    trees = [
        _oracle_grow_tree(x_sorted, y_sorted, weights, split_budget)
        for weights in bootstrap_weights(x_sorted.size, seed_seq, tree_count)
    ]
    return ForestModel(tree_count=tree_count, split_budget=split_budget, trees=trees)
