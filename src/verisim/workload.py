"""Fitted transaction-attribute models and synthetic transaction sampling.

A workload bundles three fitted models: log-scale mixtures for gas price and
used gas, and a regression forest mapping used gas to CPU seconds.  Sampling
draws gas price and used gas from the mixtures, clamps used gas to
[21000, block_limit], draws the gas limit uniformly between the used gas and
the block limit, predicts CPU time from used gas, and flags conflicts by a
Bernoulli draw.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from verisim.forest import DEFAULT_D_GRID, DEFAULT_S_GRID, ForestModel, fit_forest, fit_rfr
from verisim.gmm import GmmModel, fit_gmm, sample_gmm_with

MIN_TX_GAS = 21_000
DEFAULT_BLOCK_LIMIT = 8_000_000


@dataclass(frozen=True)
class FittedWorkload:
    gas_price_model: GmmModel
    used_gas_model: GmmModel
    cpu_time_model: ForestModel
    block_limit: int = DEFAULT_BLOCK_LIMIT
    seed: int = 0

    def __post_init__(self):
        if self.block_limit < MIN_TX_GAS:
            raise ValueError("block limit below the minimum transaction gas")

    def with_block_limit(self, block_limit: int) -> "FittedWorkload":
        """Same fitted models, different operative block limit."""
        return replace(self, block_limit=int(block_limit))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "block_limit": self.block_limit,
                    "seed": self.seed,
                    "gas_price_model": self.gas_price_model.to_dict(),
                    "used_gas_model": self.used_gas_model.to_dict(),
                    "cpu_time_model": self.cpu_time_model.to_dict(),
                },
                fh,
                indent=1,
                sort_keys=True,
            )
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "FittedWorkload":
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        return cls(
            gas_price_model=GmmModel.from_dict(d["gas_price_model"]),
            used_gas_model=GmmModel.from_dict(d["used_gas_model"]),
            cpu_time_model=ForestModel.from_dict(d["cpu_time_model"]),
            block_limit=int(d["block_limit"]),
            seed=int(d["seed"]),
        )


def fit_workload(
    used_gas,
    gas_price,
    cpu_time,
    *,
    k_min: int = 1,
    k_max: int = 8,
    criterion: str = "bic",
    d_grid=None,
    s_grid=None,
    folds: int = 10,
    seed: int = 0,
    cv_subsample: int | None = None,
    gmm_subsample: int | None = None,
    block_limit: int = DEFAULT_BLOCK_LIMIT,
) -> FittedWorkload:
    """Fit both mixtures and the CPU-time forest on one dataset partition.

    ``cv_subsample`` caps the number of rows used for the grid-search CV (the
    forest is grown on all rows at the winning hyperparameters);
    ``gmm_subsample`` does the same for the mixture component-count search
    (the winning K is refit on all rows).  None uses every row.
    """
    used_gas = np.asarray(used_gas, dtype=np.float64)
    gas_price = np.asarray(gas_price, dtype=np.float64)
    cpu_time = np.asarray(cpu_time, dtype=np.float64)
    d_grid = DEFAULT_D_GRID if d_grid is None else d_grid
    s_grid = DEFAULT_S_GRID if s_grid is None else s_grid

    root = np.random.SeedSequence(seed)
    price_seed, gas_seed, cv_pick_seed, forest_seed, gmm_pick_seed = [
        int(s.generate_state(1)[0]) for s in root.spawn(5)
    ]

    def _fit_mixture(values, fit_seed):
        if gmm_subsample is not None and gmm_subsample < values.size:
            pick = np.random.default_rng(gmm_pick_seed).choice(values.size, size=gmm_subsample, replace=False)
            k = fit_gmm(values[pick], k_min, k_max, criterion, seed=fit_seed).k
            return fit_gmm(values, k, k, criterion, seed=fit_seed)
        return fit_gmm(values, k_min, k_max, criterion, seed=fit_seed)

    price_model = _fit_mixture(gas_price, price_seed)
    gas_model = _fit_mixture(used_gas, gas_seed)

    cv_gas, cv_cpu = used_gas, cpu_time
    if cv_subsample is not None and cv_subsample < used_gas.size:
        pick = np.random.default_rng(cv_pick_seed).choice(used_gas.size, size=cv_subsample, replace=False)
        cv_gas, cv_cpu = used_gas[pick], cpu_time[pick]
    d, s = fit_rfr(cv_gas, cv_cpu, d_grid, s_grid, folds, seed=forest_seed)
    cpu_model = fit_forest(used_gas, cpu_time, d, s, seed=forest_seed)

    return FittedWorkload(
        gas_price_model=price_model,
        used_gas_model=gas_model,
        cpu_time_model=cpu_model,
        block_limit=block_limit,
        seed=seed,
    )


def sample_transaction_arrays(
    workload: FittedWorkload,
    n: int,
    conflict_rate: float,
    rng: np.random.Generator,
    block_limit: int | None = None,
) -> dict:
    """Draw n synthetic transactions as columns: ``used_gas``, ``gas_limit``,
    ``gas_price``, ``cpu_time`` and ``conflicting``, one array each."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if not 0.0 <= conflict_rate <= 1.0:
        raise ValueError("conflict rate must lie in [0, 1]")
    limit = workload.block_limit if block_limit is None else int(block_limit)
    price = sample_gmm_with(workload.gas_price_model, n, rng)
    raw_gas = sample_gmm_with(workload.used_gas_model, n, rng)
    used_gas = np.clip(np.rint(raw_gas), MIN_TX_GAS, limit).astype(np.int64)
    gas_limit = rng.integers(used_gas, limit + 1, dtype=np.int64)
    cpu = workload.cpu_time_model.predict(used_gas)
    conflicting = rng.random(n) < conflict_rate
    return {
        "used_gas": used_gas,
        "gas_limit": gas_limit,
        "gas_price": price,
        "cpu_time": cpu,
        "conflicting": conflicting,
    }
