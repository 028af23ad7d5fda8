"""Experiment orchestration: run sweeps, compare against the closed form, export CSV.

A sweep executes `runs` independent simulations per configuration (seeds
base_seed .. base_seed+runs-1) and summarises the non-verifier's relative
gain next to the closed-form prediction evaluated at the measured mean
sequential block verification time (the parallel formula applies its own
discount).  Cells are processed in configuration order and runs in
seed order, so reports are reproducible byte for byte.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from verisim.analytics import PowerProfile, VerificationParams, reward_table
from verisim.blocks import measure_verification_times, summary_stats
from verisim.config import ScenarioConfig
from verisim.sim import SimResult, run_simulation
from verisim.workload import FittedWorkload

RESULTS_HEADER = ["config_id", "seed", "miner_id", "alpha", "verifies", "fee_fraction", "relative_gain_pct"]


@dataclass(frozen=True)
class CellSummary:
    config_id: int
    block_limit: int
    mode: str
    runs: int
    seed_first: int
    seed_last: int
    tv_stats: dict
    closed_gain_pct: float | None
    sim_gain_mean_pct: float | None  # realized fee-share gain
    sim_gain_ci95_pct: float | None
    sim_expected_gain_pct: float | None  # uptime-share gain (low-variance)
    sim_expected_ci95_pct: float | None
    deviation_pct: float | None  # closed-form minus expected-share gain, in points


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


def profile_of(config: ScenarioConfig) -> PowerProfile:
    """The closed-form power profile: the invalid producer counts as a verifier."""
    return PowerProfile.make((m.id, m.alpha, m.verifies) for m in config.miners)


def closed_form_gain(config: ScenarioConfig, t_v: float) -> float | None:
    """Closed-form relative gain (%) of the non-verifying power, None if all verify.

    ``t_v`` is the mean *sequential* verification time in every mode.
    """
    profile = profile_of(config)
    if profile.alpha_skipping <= 0.0:
        return None
    params = VerificationParams(t_v=t_v, t_b=config.t_b, c=config.c, p=config.p)
    rows = reward_table(profile, params, mode=config.mode)
    skipped = [r for r in rows if not r.verifies]
    alpha = sum(r.alpha for r in skipped)
    frac = sum(r.expected_fraction for r in skipped)
    return 100.0 * (frac - alpha) / alpha


def nonverifier_gain(result: SimResult, estimator: str = "fee") -> float | None:
    """Relative gain (%) of the non-verifying power in one run.

    ``fee``: realized canonical fee share (the reward actually earned).
    ``expected``: uptime-weighted hash share, the conditional expectation of
    the block share given the run's verification pauses; it estimates the same
    quantity with far less race noise, which is what the closed-form
    comparison needs at desk scale.
    """
    skipped = [m for m in result.miners if not m.verifies]
    if not skipped:
        return None
    alpha = sum(m.alpha for m in skipped)
    if estimator == "fee":
        frac = sum(m.fee_fraction for m in skipped)
    elif estimator == "expected":
        frac = sum(m.expected_fraction for m in skipped)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return 100.0 * (frac - alpha) / alpha


def run_many(config: ScenarioConfig, workload: FittedWorkload) -> list:
    """All runs of one configuration, in seed order."""
    return [
        run_simulation(config.with_seed(config.base_seed + r), workload)
        for r in range(config.runs)
    ]


def ci_halfwidth(values: np.ndarray, level: float = 0.95) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    sd = float(values.std(ddof=1))
    q = float(sps.t.ppf(0.5 + level / 2.0, values.size - 1))
    return float(q * sd / np.sqrt(values.size))


def run_sweep(
    configs,
    workload: FittedWorkload | None = None,
    tv_blocks: int = 400,
    tv_seed: int = 1,
) -> SweepReport:
    configs = list(configs)
    all_results = []
    cells = []
    for config_id, config in enumerate(configs):
        wl = workload if workload is not None else FittedWorkload.load(config.workload)
        times = measure_verification_times(
            wl, config.block_limit, tv_blocks, seed=tv_seed, mode=config.mode, p=config.p, conflict_rate=config.c
        )
        tv_stats = summary_stats(times)
        if config.mode == "sequential":
            seq_tv = tv_stats["mean"]
        else:
            # the same blocks, re-timed sequentially for the closed form
            seq_tv = float(
                measure_verification_times(wl, config.block_limit, tv_blocks, seed=tv_seed, conflict_rate=config.c).mean()
            )
        results = run_many(config, wl)
        all_results.append(results)

        closed = closed_form_gain(config, seq_tv)
        gains = [nonverifier_gain(r, "fee") for r in results]
        expected = [nonverifier_gain(r, "expected") for r in results]
        if closed is None or any(g is None for g in gains):
            sim_mean = sim_ci = exp_mean = exp_ci = deviation = None
        else:
            arr = np.asarray(gains, dtype=np.float64)
            exp_arr = np.asarray(expected, dtype=np.float64)
            sim_mean = float(arr.mean())
            sim_ci = ci_halfwidth(arr)
            exp_mean = float(exp_arr.mean())
            exp_ci = ci_halfwidth(exp_arr)
            deviation = closed - exp_mean
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
                sim_gain_mean_pct=sim_mean,
                sim_gain_ci95_pct=sim_ci,
                sim_expected_gain_pct=exp_mean,
                sim_expected_ci95_pct=exp_ci,
                deviation_pct=deviation,
            )
        )
    return SweepReport(configs=configs, results=all_results, cells=cells)


def validate_sweep(report: SweepReport, tolerance: float) -> list:
    """Per-cell pass/fail: relative deviation of the simulated gain from the closed form.

    The deviation is signed (closed-form minus simulated) so a systematic
    closed-form overestimate is visible in the output.  The parallel closed
    form knows one processor count, ``p``: a parallel cell in which a
    verifier has another is rejected.
    """
    verdicts = []
    for cell in report.cells:
        if cell.closed_gain_pct is None:
            continue
        config = report.configs[cell.config_id]
        if config.mode == "parallel":
            others = [m.id for m in config.miners if m.verifies and config.processors_for(m) != config.p]
            if others:
                raise ValueError(
                    f"processors: config {cell.config_id} gives verifiers {others} a count other than p={config.p}, "
                    "which the closed form cannot compare against"
                )
        rel = abs(cell.deviation_pct) / abs(cell.closed_gain_pct) if cell.closed_gain_pct else np.inf
        verdicts.append(
            {
                "config_id": cell.config_id,
                "block_limit": cell.block_limit,
                "closed_gain_pct": cell.closed_gain_pct,
                "sim_gain_mean_pct": cell.sim_expected_gain_pct,
                "sim_fee_gain_mean_pct": cell.sim_gain_mean_pct,
                "signed_deviation_pct": cell.deviation_pct,
                "relative_deviation": rel,
                "passed": bool(rel <= tolerance),
            }
        )
    return verdicts


def write_results_csv(path, configs, all_results):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for config_id, results in enumerate(all_results):
            for result in results:
                for m in result.miners:
                    writer.writerow(
                        [
                            config_id,
                            result.seed,
                            m.id,
                            repr(m.alpha),
                            int(m.verifies),
                            repr(m.fee_fraction),
                            repr(m.relative_gain_pct),
                        ]
                    )


def write_summary_csv(path, cells):
    header = [
        "config_id",
        "block_limit",
        "mode",
        "runs",
        "seed_first",
        "seed_last",
        "tv_mean",
        "tv_min",
        "tv_max",
        "tv_median",
        "tv_sd",
        "closed_gain_pct",
        "sim_gain_mean_pct",
        "sim_gain_ci95_pct",
        "sim_expected_gain_pct",
        "sim_expected_ci95_pct",
        "signed_deviation_pct",
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for c in cells:
            writer.writerow(
                [
                    c.config_id,
                    c.block_limit,
                    c.mode,
                    c.runs,
                    c.seed_first,
                    c.seed_last,
                    repr(c.tv_stats["mean"]),
                    repr(c.tv_stats["min"]),
                    repr(c.tv_stats["max"]),
                    repr(c.tv_stats["median"]),
                    repr(c.tv_stats["sd"]),
                    "" if c.closed_gain_pct is None else repr(c.closed_gain_pct),
                    "" if c.sim_gain_mean_pct is None else repr(c.sim_gain_mean_pct),
                    "" if c.sim_gain_ci95_pct is None else repr(c.sim_gain_ci95_pct),
                    "" if c.sim_expected_gain_pct is None else repr(c.sim_expected_gain_pct),
                    "" if c.sim_expected_ci95_pct is None else repr(c.sim_expected_ci95_pct),
                    "" if c.deviation_pct is None else repr(c.deviation_pct),
                ]
            )


def write_configs_json(path, configs):
    """Full configuration fingerprints keyed by config_id: any results row is
    reproducible in isolation from its config_id and seed."""
    payload = {str(i): cfg.to_dict() for i, cfg in enumerate(configs)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")

