"""Transaction dataset files and calibrated synthetic dataset generation.

CSV schema: header ``used_gas,gas_price,cpu_time_s``, one row per
transaction, UTF-8, decimal point.  Used gas lies in [1, 8,000,000], the
dataset's gas limit.  The synthetic generator stands in for the
(unpublished) measured dataset; its parameters live in the profile constants
below so recalibration is a one-file change.
"""

import csv
from dataclasses import dataclass

import numpy as np

from verisim.fields import require_finite, require_integer, require_positive
from verisim.workload import DEFAULT_BLOCK_LIMIT, MIN_TX_GAS

CSV_HEADER = ["used_gas", "gas_price", "cpu_time_s"]

# The synthetic contract-execution profile.  Used gas is a mixture of
# lognormal components, (weight, log-mean, log-sd) each.  CPU time follows a
# saturating power map of used gas, CPU_SCALE * (gas / CPU_REF_GAS) **
# CPU_EXPONENT, times multiplicative lognormal noise (heteroscedastic: the
# noise sd scales with the level).  Gas price is an independent lognormal.
# The constants are tuned so that greedy 8M-gas blocks built from the
# *fitted* models average ~=0.23 s of sequential verification and the mean
# grows slightly sublinearly with the block limit (the rare heavyweight
# component is clipped at 8M in the dataset but not at larger limits).
GAS_COMPONENTS = (
    (0.715, 10.5966, 0.50),  # ln 40_000: typical calls
    (0.273, 11.9184, 0.50),  # ln 150_000: heavier contract calls
    (0.012, 15.6073, 0.80),  # ln 6_000_000: rare near-block-size calls
)
CPU_SCALE = 3.822e-3
CPU_EXPONENT = 0.25
CPU_REF_GAS = 1e5
CPU_NOISE_SD = 0.07
PRICE_LOG_MEAN = -17.7275  # ln 2e-8 Ether per gas unit
PRICE_LOG_SD = 0.60


@dataclass
class Dataset:
    """Columnar dataset of contract transactions."""

    used_gas: np.ndarray
    gas_price: np.ndarray
    cpu_time: np.ndarray

    def __len__(self) -> int:
        return int(self.used_gas.size)


def _validate_row(line_no: int, used_gas: int, gas_price: float, cpu_time: float):
    if used_gas < 1:
        raise ValueError(f"line {line_no}: used_gas must be >= 1, got {used_gas}")
    if used_gas > DEFAULT_BLOCK_LIMIT:
        raise ValueError(f"line {line_no}: used_gas ({used_gas}) exceeds block limit ({DEFAULT_BLOCK_LIMIT})")
    require_positive(f"line {line_no}: gas_price", gas_price)
    require_finite(f"line {line_no}: cpu_time_s", cpu_time, 0)


def load_dataset(path) -> Dataset:
    """Read and validate a transaction CSV; errors name the offending line."""
    used_gas, gas_price, cpu_time = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty dataset: missing header") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise ValueError(f"bad header {header!r}, expected {CSV_HEADER}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"line {line_no}: expected {len(CSV_HEADER)} fields, got {len(row)}")
            try:
                ug, gp, ct = int(row[0]), float(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"line {line_no}: malformed value ({exc})") from None
            _validate_row(line_no, ug, gp, ct)
            used_gas.append(ug)
            gas_price.append(gp)
            cpu_time.append(ct)
    if not used_gas:
        raise ValueError("empty dataset")
    return Dataset(
        used_gas=np.asarray(used_gas, dtype=np.int64),
        gas_price=np.asarray(gas_price, dtype=np.float64),
        cpu_time=np.asarray(cpu_time, dtype=np.float64),
    )


def write_dataset(dataset: Dataset, path):
    """Write the CSV schema; csv writes floats by repr, so load(write(ds)) round-trips exactly."""
    columns = (dataset.used_gas, dataset.gas_price, dataset.cpu_time)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(zip(*(column.tolist() for column in columns)))


def generate_synthetic_dataset(n: int, seed: int = 0) -> Dataset:
    """Generate a calibrated synthetic dataset; deterministic for a given seed."""
    require_integer("n", n, 100)  # fewer rows make no meaningful dataset
    rng = np.random.default_rng(seed)

    weights, mus, sds = np.asarray(GAS_COMPONENTS).T
    comps = rng.choice(weights.size, size=n, p=weights / weights.sum())
    raw_gas = np.exp(rng.normal(mus[comps], sds[comps]))
    used_gas = np.clip(np.rint(raw_gas), MIN_TX_GAS, DEFAULT_BLOCK_LIMIT).astype(np.int64)

    noise = np.exp(rng.normal(0.0, CPU_NOISE_SD, size=n))
    cpu_time = CPU_SCALE * (used_gas / CPU_REF_GAS) ** CPU_EXPONENT * noise
    gas_price = np.exp(rng.normal(PRICE_LOG_MEAN, PRICE_LOG_SD, size=n))

    return Dataset(used_gas=used_gas, gas_price=gas_price, cpu_time=cpu_time)


def default_workload(n: int = 60_000, seed: int = 7):
    """Generate the calibrated synthetic execution dataset and fit it at desk scale.

    This is the reference recipe behind the shipped calibration targets:
    mixtures searched up to K=6 (component count chosen by BIC on a 20k
    subsample, the search stopping once BIC has risen on two K in a row, then
    refit on all rows by one EM run started from the winner) and a 100-tree
    forest with a 64-split budget.
    """
    from verisim.workload import fit_workload

    ds = generate_synthetic_dataset(n, seed=seed)
    return fit_workload(
        ds.used_gas,
        ds.gas_price,
        ds.cpu_time,
        k_max=6,
        tree_count=100,
        split_budget=64,
        seed=seed,
    )
