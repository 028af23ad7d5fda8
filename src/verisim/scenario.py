"""Experiment orchestration: run sweeps, compare against the closed form, export CSV.

A sweep executes `runs` independent simulations per configuration (seeds
base_seed .. base_seed+runs-1) and summarises the non-verifier's relative
gain next to the closed-form prediction evaluated at the measured mean
sequential block verification time (the parallel formula applies its own
discount).  Cells are processed in configuration order and runs in
seed order, so reports are reproducible byte for byte.
"""

import csv
import functools
import json
from dataclasses import dataclass
from importlib.resources import as_file, files

import numpy as np

from verisim.analytics import VerificationParams, reward_table
from verisim.blocks import measure_verification_times, summary_stats
from verisim.config import MAX_BLOCKS_PER_RUN, MAX_RUNS, ScenarioConfig
from verisim.fields import require_integer
from verisim.sim import SimResult, resolve_workload, run_simulation
from verisim.workload import FittedWorkload

# the coverage of the summary's confidence intervals
CI_LEVEL = 0.95
# stdtrit(df, 0.5 + CI_LEVEL / 2) for df = 1 .. MAX_RUNS - 1, in verisim/data;
# tests/test_student_t_table.py checks it and regenerates it
T_TABLE = "student_t_975.npy"

RESULTS_HEADER = ["config_id", "seed", "miner_id", "alpha", "verifies", "fee_fraction", "relative_gain_pct"]
TV_STATS = ("mean", "min", "max", "median", "sd")
SUMMARY_HEADER = [
    "config_id", "block_limit", "mode", "runs", "seed_first", "seed_last", *(f"tv_{name}" for name in TV_STATS),
    "closed_gain_pct", "sim_gain_mean_pct", "sim_gain_ci95_pct", "sim_expected_gain_pct", "sim_expected_ci95_pct",
    "signed_deviation_pct",
]

# the MinerOutcome field each simulated gain estimator sums
ESTIMATOR_FIELDS = {"fee": "fee_fraction", "expected": "expected_fraction"}


@dataclass(frozen=True)
class CellSummary:
    config_id: int
    block_limit: int
    mode: str
    runs: int
    seed_first: int
    seed_last: int
    tv_stats: dict
    # all None in a cell without a non-verifier
    closed_gain_pct: float | None
    sim_gain_mean_pct: float | None = None  # realized fee-share gain
    sim_gain_ci95_pct: float | None = None
    sim_expected_gain_pct: float | None = None  # uptime-share gain (low-variance)
    sim_expected_ci95_pct: float | None = None
    signed_deviation_pct: float | None = None  # closed-form minus expected-share gain, in points


@dataclass
class SweepReport:
    configs: list
    results: list  # one SimResult per (config, run)
    cells: list

    def write(self, out_dir):
        import pathlib

        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_results_csv(out / "results.csv", self.configs, self.results)
        write_summary_csv(out / "summary.csv", self.cells)
        write_configs_json(out / "configs.json", self.configs)
        return out


def _gain_pct(rows, fraction: str) -> float | None:
    """100 (sum of ``fraction`` - sum of alpha) / sum of alpha over the rows that
    skip verification, None if every row verifies."""
    skipped = [r for r in rows if not r.verifies]
    if not skipped:
        return None
    alpha = sum(r.alpha for r in skipped)
    frac = sum(getattr(r, fraction) for r in skipped)
    return 100.0 * (frac - alpha) / alpha


def closed_form_gain(config: ScenarioConfig, t_v: float) -> float | None:
    """Closed-form relative gain (%) of the non-verifying power, None if all verify.

    ``t_v`` is the mean *sequential* verification time in every mode.  The
    invalid producer counts as a verifier.
    """
    params = VerificationParams(t_v=t_v, t_b=config.t_b, c=config.c, p=config.p)
    return _gain_pct(reward_table(config, params, mode=config.mode), "expected_fraction")


def nonverifier_gain(result: SimResult, estimator: str = "fee") -> float | None:
    """Relative gain (%) of the non-verifying power in one run.

    ``fee``: realized canonical fee share (the reward actually earned).
    ``expected``: uptime-weighted hash share, the conditional expectation of
    the block share given the run's verification pauses; it estimates the same
    quantity with far less race noise, which is what the closed-form
    comparison needs at desk scale.
    """
    if estimator not in ESTIMATOR_FIELDS:
        raise ValueError(f"unknown estimator {estimator!r}")
    return _gain_pct(result.miners, ESTIMATOR_FIELDS[estimator])


def run_many(config: ScenarioConfig, workload: FittedWorkload) -> list:
    """All runs of one configuration, in seed order."""
    return [
        run_simulation(config.with_seed(config.base_seed + r), workload)
        for r in range(config.runs)
    ]


@functools.cache
def student_t_table() -> np.ndarray:
    """The Student-t quantiles of ``T_TABLE``, memory-mapped once per process."""
    with as_file(files("verisim") / "data" / T_TABLE) as path:
        return np.load(path, mmap_mode="r")


def ci_halfwidth(values: np.ndarray) -> float:
    # the quantile is read from a table of scipy.special.stdtrit, the function
    # scipy.stats.t.ppf evaluates, bit for bit, so a sweep never imports scipy
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    if values.size > MAX_RUNS:
        raise ValueError(f"ci_halfwidth takes at most MAX_RUNS={MAX_RUNS} values, got {values.size}")
    sd = float(values.std(ddof=1))
    q = float(student_t_table()[values.size - 2])
    return float(q * sd / np.sqrt(values.size))


def run_sweep(
    configs,
    workload: FittedWorkload | None = None,
    tv_blocks: int = 400,
    tv_seed: int = 1,
) -> SweepReport:
    require_integer("tv_blocks", tv_blocks, 1, MAX_BLOCKS_PER_RUN)
    configs = list(configs)
    all_results = []
    cells = []
    for config_id, config in enumerate(configs):
        wl = resolve_workload(config, workload)
        p = config.processors_for()
        # the closed form takes the same blocks' time on one processor
        seq = np.empty(tv_blocks, dtype=np.float64)
        tv_stats = summary_stats(
            measure_verification_times(
                wl, config.block_limit, tv_blocks, seed=tv_seed, p=p, conflict_rate=config.c, seq_out=seq
            )
        )
        seq_tv = float(seq.mean())
        results = run_many(config, wl)
        all_results.append(results)

        closed = closed_form_gain(config, seq_tv)
        gains = {}
        # the closed form and every run have a non-verifier, or none of them does
        if closed is not None:
            fee = np.asarray([nonverifier_gain(r, "fee") for r in results], dtype=np.float64)
            expected = np.asarray([nonverifier_gain(r, "expected") for r in results], dtype=np.float64)
            gains = dict(
                sim_gain_mean_pct=float(fee.mean()),
                sim_gain_ci95_pct=ci_halfwidth(fee),
                sim_expected_gain_pct=float(expected.mean()),
                sim_expected_ci95_pct=ci_halfwidth(expected),
                signed_deviation_pct=closed - float(expected.mean()),
            )
        cells.append(
            CellSummary(
                config_id=config_id,
                block_limit=config.block_limit,
                mode=config.mode,
                runs=config.runs,
                seed_first=config.base_seed,
                seed_last=config.base_seed + config.runs - 1,
                tv_stats=tv_stats,
                closed_gain_pct=closed,
                **gains,
            )
        )
    return SweepReport(configs=configs, results=all_results, cells=cells)


def check_comparable(configs) -> None:
    """Reject a configuration whose simulation the closed form cannot be compared against.

    That is a cell with invalid blocks: neither the closed form nor the
    expected-share estimator sees the non-verifier's blocks lost to them.
    The check reads the configurations only, so callers run it before any
    simulation.
    """
    for config_id, config in enumerate(configs):
        if config.invalid_rate > 0:
            raise ValueError(
                f"invalid_rate: config {config_id} has invalid_rate={config.invalid_rate}, "
                "whose punishment neither the closed form nor the expected-share estimator sees"
            )


def validate_sweep(report: SweepReport, tolerance: float) -> list:
    """``(cell, relative_deviation, passed)`` for each cell with a closed-form gain.

    The relative deviation is ``|signed_deviation_pct| / |closed_gain_pct|``,
    which compares the expected-share gain with the closed form; the cell's
    signed deviation keeps a systematic closed-form overestimate visible.
    A configuration with invalid blocks, which ``check_comparable`` rejects,
    raises its error.
    """
    check_comparable(report.configs)
    verdicts = []
    for cell in report.cells:
        if cell.closed_gain_pct is None:
            continue
        rel = abs(cell.signed_deviation_pct) / abs(cell.closed_gain_pct) if cell.closed_gain_pct else np.inf
        verdicts.append((cell, rel, bool(rel <= tolerance)))
    return verdicts


def write_results_csv(path, configs, all_results):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        writer.writerows(
            [config_id, result.seed, m.id, m.alpha, int(m.verifies), m.fee_fraction, m.relative_gain_pct]
            for config_id, results in enumerate(all_results)
            for result in results
            for m in result.miners
        )


def write_summary_csv(path, cells):
    # csv writes a float as its repr and None as an empty field
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(
            [c.config_id, c.block_limit, c.mode, c.runs, c.seed_first, c.seed_last, *(c.tv_stats[k] for k in TV_STATS),
             c.closed_gain_pct, c.sim_gain_mean_pct, c.sim_gain_ci95_pct, c.sim_expected_gain_pct,
             c.sim_expected_ci95_pct, c.signed_deviation_pct]
            for c in cells
        )


def write_configs_json(path, configs):
    """Full configuration fingerprints keyed by config_id: any results row is
    reproducible in isolation from its config_id and seed."""
    payload = {str(i): cfg.to_dict() for i, cfg in enumerate(configs)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")

