"""Fitted transaction-attribute models and synthetic transaction sampling.

A workload bundles three fitted models: log-scale mixtures for gas price and
used gas, and a regression forest mapping used gas to CPU seconds.  Sampling
draws gas price and used gas from the mixtures, clamps used gas to
[21000, block_limit], predicts CPU time from used gas, and flags conflicts by
a Bernoulli draw.  Each drawn column has its own random stream, spawned from
the caller's generator, so one column's draws never shift another's.

Because the streams are independent, two columns are drawn at once: one
worker thread draws the gas prices and the conflict flags while the calling
thread draws used gas and predicts CPU time.  NumPy releases the GIL in
those fills and ufuncs, so the two overlap on two cores, and every column
keeps the bits of a serial draw.  The worker is started on the first draw
and dropped in a forked child, which starts its own on its first draw.

A caller that knows its next draw can start it early (``start_fill``): the
draw's streams are spawned at once, and the worker draws its used-gas
standard normals from a copy of the used-gas stream jumped past the
component uniforms that come before them (PCG64 jumps ahead by any count in
O(log n) steps).  The later call then draws only the uniforms and scales the
staged normals, with the same bits.  A job that overlaps the caller's Python
code is one NumPy call: each further call would wait for the GIL behind it.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from verisim import gmm
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


# the one worker thread that draws each sample's gas prices and conflict
# flags, and a started fill's used-gas normals
_worker = None


def _drop_worker():
    """Forget the worker: its thread does not survive a fork, so a child that
    submitted to it would wait for ever."""
    global _worker
    _worker = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_worker)


def _submit(fn, *args):
    global _worker
    if _worker is None:
        from concurrent.futures import ThreadPoolExecutor

        _worker = ThreadPoolExecutor(1, thread_name_prefix="verisim-sample")
    return _worker.submit(fn, *args)


# bit generators whose ``advance(n)`` skips n 64-bit draws, which is n
# uniforms; Philox's counts blocks of four, and MT19937 and SFC64 have none
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)


def require_jumpable(rng) -> np.random.Generator:
    """``rng`` if ``start_fill`` can use it: a ``Generator`` on PCG64 or
    PCG64DXSM that carries a ``SeedSequence``, as ``np.random.default_rng``
    makes; anything else raises a ValueError that names ``rng``."""
    bits = getattr(rng, "bit_generator", None)
    if not (isinstance(rng, np.random.Generator) and isinstance(bits, _JUMPABLE)
            and isinstance(bits.seed_seq, np.random.SeedSequence)):
        got = type(rng).__name__ + (f"({type(bits).__name__})" if bits is not None else "")
        raise ValueError("rng must be a numpy Generator on PCG64 or PCG64DXSM with a SeedSequence "
                         f"to spawn, as np.random.default_rng(seed) makes, got {got}")
    return rng


def _normals_stream(model: GmmModel, n: int, gas_rng: np.random.Generator) -> np.random.Generator:
    """A fresh copy of the used-gas child ``gas_rng``, which has drawn nothing
    yet, jumped past the n component uniforms that a K > 1 draw takes first:
    it gives that draw's n normals."""
    bits = type(gas_rng.bit_generator)(gas_rng.bit_generator.seed_seq)
    if model.k > 1:
        bits.advance(n)
    return np.random.Generator(bits)


def start_fill(workload: FittedWorkload, n: int, rng: np.random.Generator, staging: np.ndarray) -> tuple:
    """Start the next ``sample_transaction_arrays`` call on ``rng`` for n
    transactions: spawn its three column streams, as that call would, and
    have the worker draw its n used-gas normals into ``staging`` (float64,
    n) at once, from a jumped copy of the used-gas child.  The result is
    that call's ``fill``; ``staging`` must stay untouched until it returns.
    The job is one NumPy call, so it holds the GIL only to start and end.
    ``rng`` must pass ``require_jumpable``."""
    streams = rng.spawn(3)
    draw = _normals_stream(workload.used_gas_model, n, streams[1]).standard_normal
    return streams, staging, _submit(draw, n, np.float64, staging), _worker


def _staged_normals(fill: tuple, model: GmmModel, n: int) -> np.ndarray:
    """The started fill's normals, once the worker has drawn them.  In a
    forked child the parent's worker is gone, so they are drawn here from a
    fresh jumped copy, with the same bits."""
    (_, gas_rng, _), staging, drawn, worker = fill
    if worker is _worker:
        drawn.result()
    else:
        _normals_stream(model, n, gas_rng).standard_normal(n, out=staging)
    return staging


def _draw_prices_and_flags(price_model, n, conflict_rate, price_rng, conflict_rng, gas_price, conflicting):
    """The worker's columns.  The conflict uniforms are drawn into
    ``gas_price``, which the price draw then overwrites.  The price is drawn
    through the ``gmm`` module, not this module's ``sample_gmm_with``, so a
    wrapper that times that name on the calling thread never runs here."""
    if conflict_rate > 0:
        np.less(conflict_rng.random(n, out=gas_price), conflict_rate, out=conflicting)
    else:
        conflicting.fill(False)
    gmm.sample_gmm_with(price_model, n, price_rng, out=gas_price)


def sample_transaction_arrays(
    workload: FittedWorkload,
    n: int,
    conflict_rate: float,
    rng: np.random.Generator,
    block_limit: int | None = None,
    out: dict | None = None,
    fill: tuple | None = None,
) -> dict:
    """Draw n synthetic transactions as columns: ``used_gas``, ``gas_price``,
    ``cpu_time`` and ``conflicting``, one array each.

    ``rng`` must carry a ``SeedSequence``, as ``np.random.default_rng`` does.
    It is only spawned, never drawn from: its three children, in order, feed
    the gas price, the used gas and the conflict flags.  At ``conflict_rate``
    0 no flag is drawn.

    The module's worker thread draws ``gas_price`` and ``conflicting`` while
    the calling thread draws ``used_gas`` and predicts ``cpu_time``; each
    column has the bits of drawing it alone from its child.  The call waits
    for the worker before it returns or raises, and an error in either
    thread's draw is raised here.

    ``fill``, if given, is what ``start_fill(workload, n, rng, staging)``
    returned: the call then takes its three streams from it instead of
    spawning them, and its used-gas normals from ``staging``, once the
    worker has drawn them, with the same bits.  An error in that staged draw
    is raised here.

    ``out`` maps the four column names to arrays of n, typed as
    :func:`empty_columns` makes them, that receive the draws, and is
    returned; None allocates them.  Every step runs in those arrays, with
    the bits of the out-of-place ``clip(rint(draw), ...).astype(np.int64)``.
    Two columns serve as scratch before they are filled: the conflict
    uniforms land in ``gas_price`` and the raw used gas in ``cpu_time``.
    """
    require_integer("n", n)
    require_finite("conflict_rate", conflict_rate, 0, 1)
    limit = workload.block_limit if block_limit is None else check_block_limit(block_limit)
    if out is None:
        out = empty_columns(n)
    price_rng, gas_rng, conflict_rng = rng.spawn(3) if fill is None else fill[0]
    drawn = _submit(_draw_prices_and_flags, workload.gas_price_model, n, conflict_rate,
                    price_rng, conflict_rng, out["gas_price"], out["conflicting"])
    try:
        normals = None if fill is None else _staged_normals(fill, workload.used_gas_model, n)
        # cpu_time is scratch for the raw used gas until the forest fills it
        raw_gas = sample_gmm_with(workload.used_gas_model, n, gas_rng, out=out["cpu_time"], normals=normals)
        np.rint(raw_gas, out=raw_gas)
        np.clip(raw_gas, MIN_TX_GAS, limit, out=raw_gas)
        np.copyto(out["used_gas"], raw_gas, casting="unsafe")
        workload.cpu_time_model.predict(out["used_gas"], out=out["cpu_time"])
    finally:
        # the worker writes into out: wait for it even when this draw raised
        worker_error = drawn.exception()
    if worker_error is not None:
        raise worker_error
    return out
