import numpy as np

from verisim.forest import ForestModel, RegressionTree
from verisim.gmm import GmmModel
from verisim.stats import _as_pair
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


def pearson(xs, ys) -> float:
    """Product-moment correlation coefficient in [-1, 1]."""
    x, y = _as_pair(xs, ys)
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for constant input")
    r = float(np.sum(dx * dy)) / (sx * sy)
    return min(1.0, max(-1.0, r))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1, with tied values assigned their average rank."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.arange(1, x.size + 1, dtype=np.float64)
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    # average the positional ranks within each tie group
    sums = np.zeros(counts.size, dtype=np.float64)
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def spearman(xs, ys) -> float:
    """Rank correlation: Pearson on average-tied ranks."""
    x, y = _as_pair(xs, ys)
    return pearson(_average_ranks(x), _average_ranks(y))


def distribution_distance(original, sampled) -> dict:
    """Two-sample Kolmogorov-Smirnov statistic: sup distance of empirical CDFs."""
    a = np.sort(np.asarray(original, dtype=np.float64))
    b = np.sort(np.asarray(sampled, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return {"ks_stat": float(np.max(np.abs(cdf_a - cdf_b)))}
