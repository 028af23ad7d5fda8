"""Transaction dataset files and calibrated synthetic dataset generation.

CSV schema: header ``used_gas,gas_limit,gas_price,cpu_time_s``, one row per
transaction, UTF-8, decimal point.  The synthetic generator stands in for the
(unpublished) measured dataset; its parameters live in the profile constants
below so recalibration is a one-file change.
"""

import csv
from dataclasses import dataclass

import numpy as np

from verisim.workload import DEFAULT_BLOCK_LIMIT, MIN_TX_GAS

CSV_HEADER = ["used_gas", "gas_limit", "gas_price", "cpu_time_s"]
PARTITIONS = ("creation", "execution")


@dataclass(frozen=True)
class SyntheticProfile:
    """Generator parameters for one dataset partition.

    ``gas_components`` are (weight, log-mean, log-sd) lognormal components of
    used gas.  CPU time follows a saturating power map of used gas,
    cpu = scale * (gas / ref)^exponent, times multiplicative lognormal noise
    (heteroscedastic: the noise sd scales with the level).  Gas price is an
    independent lognormal.
    """

    gas_components: tuple
    cpu_scale: float
    cpu_exponent: float
    cpu_ref_gas: float
    cpu_noise_sd: float
    price_log_mean: float
    price_log_sd: float


# Execution-partition constants, tuned so that greedy 8M-gas blocks built from
# the *fitted* models average ~=0.23 s of sequential verification and the mean
# grows slightly sublinearly with the block limit (the rare heavyweight
# component is clipped at 8M in the dataset but not at larger limits).
EXECUTION_PROFILE = SyntheticProfile(
    gas_components=(
        (0.715, 10.5966, 0.50),  # ln 40_000: typical calls
        (0.273, 11.9184, 0.50),  # ln 150_000: heavier contract calls
        (0.012, 15.6073, 0.80),  # ln 6_000_000: rare near-block-size calls
    ),
    cpu_scale=3.822e-3,
    cpu_exponent=0.25,
    cpu_ref_gas=1e5,
    cpu_noise_sd=0.07,
    price_log_mean=-17.7275,  # ln 2e-8 Ether per gas unit
    price_log_sd=0.60,
)

# Contract deployments: fewer, larger, slower; not calibration-constrained.
CREATION_PROFILE = SyntheticProfile(
    gas_components=(
        (0.55, 12.6115, 0.60),  # ln 300_000
        (0.45, 13.9108, 0.55),  # ln 1_100_000
    ),
    cpu_scale=9.0e-3,
    cpu_exponent=0.30,
    cpu_ref_gas=1e5,
    cpu_noise_sd=0.07,
    price_log_mean=-17.7275,
    price_log_sd=0.60,
)

PROFILES = {"execution": EXECUTION_PROFILE, "creation": CREATION_PROFILE}


@dataclass
class Dataset:
    """Columnar dataset of contract transactions for one partition."""

    used_gas: np.ndarray
    gas_limit: np.ndarray
    gas_price: np.ndarray
    cpu_time: np.ndarray
    partition: str
    source: str

    def __len__(self) -> int:
        return int(self.used_gas.size)


def _validate_row(line_no: int, used_gas: int, gas_limit: int, gas_price: float, cpu_time: float, block_limit: int):
    if used_gas < 1:
        raise ValueError(f"line {line_no}: used_gas must be >= 1, got {used_gas}")
    if gas_limit < used_gas:
        raise ValueError(f"line {line_no}: gas_limit ({gas_limit}) < used_gas ({used_gas})")
    if gas_limit > block_limit:
        raise ValueError(f"line {line_no}: gas_limit ({gas_limit}) exceeds block limit ({block_limit})")
    if gas_price <= 0:
        raise ValueError(f"line {line_no}: gas_price must be positive, got {gas_price}")
    if cpu_time < 0:
        raise ValueError(f"line {line_no}: cpu_time_s must be non-negative, got {cpu_time}")


def load_dataset(path, partition: str = "execution", block_limit: int = DEFAULT_BLOCK_LIMIT) -> Dataset:
    """Read and validate a transaction CSV; errors name the offending line."""
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}")
    used_gas, gas_limit, gas_price, cpu_time = [], [], [], []
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
            if len(row) != 4:
                raise ValueError(f"line {line_no}: expected 4 fields, got {len(row)}")
            try:
                ug, gl = int(row[0]), int(row[1])
                gp, ct = float(row[2]), float(row[3])
            except ValueError as exc:
                raise ValueError(f"line {line_no}: malformed value ({exc})") from None
            _validate_row(line_no, ug, gl, gp, ct, block_limit)
            used_gas.append(ug)
            gas_limit.append(gl)
            gas_price.append(gp)
            cpu_time.append(ct)
    if not used_gas:
        raise ValueError("empty dataset")
    return Dataset(
        used_gas=np.asarray(used_gas, dtype=np.int64),
        gas_limit=np.asarray(gas_limit, dtype=np.int64),
        gas_price=np.asarray(gas_price, dtype=np.float64),
        cpu_time=np.asarray(cpu_time, dtype=np.float64),
        partition=partition,
        source="file",
    )


def write_dataset(dataset: Dataset, path):
    """Write the CSV schema; floats use repr so load(write(ds)) round-trips exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(len(dataset)):
            writer.writerow(
                [
                    int(dataset.used_gas[i]),
                    int(dataset.gas_limit[i]),
                    repr(float(dataset.gas_price[i])),
                    repr(float(dataset.cpu_time[i])),
                ]
            )


def synthetic_cpu_map(profile: SyntheticProfile, used_gas) -> np.ndarray:
    """Noise-free expected CPU seconds for a given used gas."""
    g = np.asarray(used_gas, dtype=np.float64)
    return profile.cpu_scale * (g / profile.cpu_ref_gas) ** profile.cpu_exponent


def generate_synthetic_dataset(
    n: int,
    partition: str = "execution",
    seed: int = 0,
    block_limit: int = DEFAULT_BLOCK_LIMIT,
) -> Dataset:
    """Generate a calibrated synthetic dataset; deterministic for a given seed."""
    if n < 100:
        raise ValueError("need n >= 100 for a meaningful dataset")
    if partition not in PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}")
    profile = PROFILES[partition]
    rng = np.random.default_rng(seed)

    weights = np.asarray([c[0] for c in profile.gas_components])
    mus = np.asarray([c[1] for c in profile.gas_components])
    sds = np.asarray([c[2] for c in profile.gas_components])
    comps = rng.choice(weights.size, size=n, p=weights / weights.sum())
    raw_gas = np.exp(rng.normal(mus[comps], sds[comps]))
    used_gas = np.clip(np.rint(raw_gas), MIN_TX_GAS, block_limit).astype(np.int64)

    noise = np.exp(rng.normal(0.0, profile.cpu_noise_sd, size=n))
    cpu_time = synthetic_cpu_map(profile, used_gas) * noise
    gas_price = np.exp(rng.normal(profile.price_log_mean, profile.price_log_sd, size=n))
    gas_limit = rng.integers(used_gas, block_limit + 1, dtype=np.int64)

    return Dataset(
        used_gas=used_gas,
        gas_limit=gas_limit,
        gas_price=gas_price,
        cpu_time=cpu_time,
        partition=partition,
        source="synthetic",
    )


def default_workload(n: int = 60_000, seed: int = 7, partition: str = "execution"):
    """Generate the calibrated synthetic dataset and fit it at desk scale.

    This is the reference recipe behind the shipped calibration targets:
    mixtures searched up to K=6 (component count chosen on a 20k subsample,
    refit on all rows) and a 100-tree forest with a 64-split budget.
    """
    from verisim.workload import fit_workload

    ds = generate_synthetic_dataset(n, partition, seed)
    return fit_workload(
        ds.used_gas,
        ds.gas_price,
        ds.cpu_time,
        k_min=1,
        k_max=6,
        d_grid=[100],
        s_grid=[64],
        folds=5,
        seed=seed,
        cv_subsample=8_000,
        gmm_subsample=20_000,
    )
