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
