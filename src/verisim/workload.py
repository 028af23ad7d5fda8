"""Fitted transaction-attribute models and synthetic transaction sampling.

A workload bundles three fitted models: log-scale mixtures for gas price and
used gas, and a regression forest mapping used gas to CPU seconds.  Sampling
draws gas price and used gas from the mixtures, clamps used gas to
[21000, block_limit], predicts CPU time from used gas, and flags conflicts by
a Bernoulli draw.  Each drawn column has its own random stream, spawned from
the caller's generator, so one column's draws never shift another's.
"""

import json
from dataclasses import dataclass

import numpy as np

from verisim.fields import require_finite, require_integer, require_object
from verisim.forest import ForestModel, fit_forest, fit_rfr
from verisim.gmm import GmmModel, fit_gmm, sample_gmm_with

MIN_TX_GAS = 21_000
# the largest accepted block limit; a TxStream refill holds about
# 4 * limit / MIN_TX_GAS transactions, some 205,000 at this cap
MAX_BLOCK_LIMIT = 2**30
# the transaction dataset's gas limit (generated rows are clipped at it,
# loaded rows above it are rejected) and a model's default block_limit
DEFAULT_BLOCK_LIMIT = 8_000_000
# the rows the mixture K search and the forest's grid-search CV pick at most;
# the winning mixture is refit on all rows by one EM run started from it, the
# winning forest cell grown on all rows
GMM_SUBSAMPLE = 20_000
CV_SUBSAMPLE = 20_000


def check_block_limit(block_limit) -> int:
    """The block limit as an int; anything but an integer in [MIN_TX_GAS, MAX_BLOCK_LIMIT] raises."""
    return require_integer("block_limit", block_limit, MIN_TX_GAS, MAX_BLOCK_LIMIT)


@dataclass(frozen=True)
class FittedWorkload:
    gas_price_model: GmmModel
    used_gas_model: GmmModel
    cpu_time_model: ForestModel
    block_limit: int = DEFAULT_BLOCK_LIMIT
    seed: int = 0

    def __post_init__(self):
        check_block_limit(self.block_limit)
        require_integer("seed", self.seed, 0)

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
        """Read a saved workload; every error names the field it rejects."""
        with open(path, encoding="utf-8") as fh:
            d = require_object("workload", json.load(fh), cls)
        models = {name: GmmModel.from_dict(require_object(name, d[name], GmmModel))
                  for name in ("gas_price_model", "used_gas_model")}
        forest = ForestModel.from_dict(require_object("cpu_time_model", d["cpu_time_model"], ForestModel))
        return cls(**{**d, **models, "cpu_time_model": forest})


def _derived_seeds(seed: int) -> list:
    """The five model seeds derived from one fit seed: gas price mixture,
    used gas mixture, CV subsample pick, forest, mixture subsample pick."""
    require_integer("seed", seed, 0)
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(5)]


def fit_cpu_time_model(
    used_gas,
    cpu_time,
    *,
    d_grid,
    s_grid,
    folds: int = 10,
    seed: int = 0,
) -> ForestModel:
    """The CPU-time forest at the grid cell that K-fold CV picks.

    The grid-search CV picks (d, s) on at most ``CV_SUBSAMPLE`` rows; the
    forest is then grown on all rows at that cell with the forest seed of
    :func:`fit_workload`, so ``fit_workload`` at the picked (d, s) and the
    same ``seed`` grows the same forest.
    """
    used_gas = np.asarray(used_gas, dtype=np.float64)
    cpu_time = np.asarray(cpu_time, dtype=np.float64)
    _, _, cv_pick_seed, forest_seed, _ = _derived_seeds(seed)

    cv_gas, cv_cpu = used_gas, cpu_time
    if used_gas.size > CV_SUBSAMPLE:
        pick = np.random.default_rng(cv_pick_seed).choice(used_gas.size, size=CV_SUBSAMPLE, replace=False)
        cv_gas, cv_cpu = used_gas[pick], cpu_time[pick]
    d, s = fit_rfr(cv_gas, cv_cpu, d_grid, s_grid, folds, seed=forest_seed)
    return fit_forest(used_gas, cpu_time, d, s, seed=forest_seed)


def fit_workload(
    used_gas,
    gas_price,
    cpu_time,
    *,
    k_max: int = 8,
    tree_count: int,
    split_budget: int,
    seed: int = 0,
) -> FittedWorkload:
    """Fit both mixtures on one transaction dataset and grow its CPU-time
    forest at (``tree_count``, ``split_budget``).

    Each mixture's K is searched over [1, ``k_max``] on at most
    ``GMM_SUBSAMPLE`` rows; on a larger dataset the winner is then refit on
    all rows by one EM run that starts from it.
    :func:`fit_cpu_time_model` picks the forest's cell by CV.
    """
    # the forest is grown last: check its sizes before the mixtures are fitted
    require_integer("tree_count", tree_count)
    require_integer("split_budget", split_budget)
    used_gas = np.asarray(used_gas, dtype=np.float64)
    gas_price = np.asarray(gas_price, dtype=np.float64)
    price_seed, gas_seed, _, forest_seed, gmm_pick_seed = _derived_seeds(seed)

    def _fit_mixture(values, fit_seed):
        if values.size > GMM_SUBSAMPLE:
            pick = np.random.default_rng(gmm_pick_seed).choice(values.size, size=GMM_SUBSAMPLE, replace=False)
            searched = fit_gmm(values[pick], 1, k_max, seed=fit_seed)
            return fit_gmm(values, searched.k, searched.k, start=searched)
        return fit_gmm(values, 1, k_max, seed=fit_seed)

    price_model = _fit_mixture(gas_price, price_seed)
    gas_model = _fit_mixture(used_gas, gas_seed)
    cpu_model = fit_forest(used_gas, cpu_time, tree_count, split_budget, seed=forest_seed)
    return FittedWorkload(
        gas_price_model=price_model,
        used_gas_model=gas_model,
        cpu_time_model=cpu_model,
        seed=seed,
    )


def empty_columns(n: int) -> dict:
    """Uninitialised transaction columns of n rows, as ``sample_transaction_arrays`` fills them."""
    return {
        "used_gas": np.empty(n, dtype=np.int64),
        "gas_price": np.empty(n),
        "cpu_time": np.empty(n),
        "conflicting": np.empty(n, dtype=bool),
    }


def sample_transaction_arrays(
    workload: FittedWorkload,
    n: int,
    conflict_rate: float,
    rng: np.random.Generator,
    block_limit: int | None = None,
    out: dict | None = None,
) -> dict:
    """Draw n synthetic transactions as columns: ``used_gas``, ``gas_price``,
    ``cpu_time`` and ``conflicting``, one array each.

    ``rng`` must carry a ``SeedSequence``, as ``np.random.default_rng`` does.
    It is only spawned, never drawn from: its three children, in order, feed
    the gas price, the used gas and the conflict flags.  At ``conflict_rate``
    0 no flag is drawn.

    ``out`` maps the four column names to arrays of n, typed as
    :func:`empty_columns` makes them, that receive the draws, and is
    returned; None allocates them.  Every step runs in those arrays, with
    the bits of the out-of-place ``clip(rint(draw), ...).astype(np.int64)``.
    """
    require_integer("n", n)
    require_finite("conflict_rate", conflict_rate, 0, 1)
    limit = workload.block_limit if block_limit is None else check_block_limit(block_limit)
    if out is None:
        out = empty_columns(n)
    price_rng, gas_rng, conflict_rng = rng.spawn(3)
    # cpu_time is scratch until the forest fills it: first the conflict
    # uniforms, then the raw used gas
    scratch = out["cpu_time"]
    if conflict_rate > 0:
        np.less(conflict_rng.random(n, out=scratch), conflict_rate, out=out["conflicting"])
    else:
        out["conflicting"].fill(False)
    sample_gmm_with(workload.gas_price_model, n, price_rng, out=out["gas_price"])
    raw_gas = sample_gmm_with(workload.used_gas_model, n, gas_rng, out=scratch)
    np.rint(raw_gas, out=raw_gas)
    np.clip(raw_gas, MIN_TX_GAS, limit, out=raw_gas)
    np.copyto(out["used_gas"], raw_gas, casting="unsafe")
    workload.cpu_time_model.predict(out["used_gas"], out=out["cpu_time"])
    return out
