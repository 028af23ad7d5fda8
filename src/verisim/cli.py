"""Command-line interface: dataset generation, model fitting, analytics, simulation."""

import argparse
import sys

import numpy as np

from verisim.config import MAX_BLOCKS_PER_RUN
from verisim.fields import require_finite, require_integer


def _numbers(flag: str, text: str, kind=int) -> list:
    """A comma-separated flag value; an entry that does not parse names the flag."""
    try:
        return [kind(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated {kind.__name__} values, got {text!r}") from None


def _grid(flag: str, text: str) -> list:
    """A search grid: a non-empty comma-separated list of positive integers."""
    values = _numbers(flag, text)
    if not values or min(values) < 1:
        raise ValueError(f"{flag} must be a non-empty list of positive integers, got {text!r}")
    return values


def cmd_gen_data(args) -> int:
    from verisim.dataio import generate_synthetic_dataset, write_dataset

    require_integer("--n", args.n, 100)  # fewer rows make no meaningful dataset
    ds = generate_synthetic_dataset(args.n, args.seed)
    write_dataset(ds, args.out)
    print(f"wrote {len(ds)} transactions to {args.out}")
    return 0


def cmd_fit(args) -> int:
    from verisim.dataio import load_dataset
    from verisim.stats import regression_metrics
    from verisim.workload import CV_SUBSAMPLE, GMM_SUBSAMPLE, fit_cpu_time_model, fit_workload

    # the mixtures are fitted after the split's forest: reject their flags first;
    # the K search and the CV each run on at most their subsample's rows
    require_integer("--k-max", args.k_max, 1, GMM_SUBSAMPLE)
    require_integer("--folds", args.folds, 2, CV_SUBSAMPLE)
    d_grid, s_grid = _grid("--d-grid", args.d_grid), _grid("--s-grid", args.s_grid)
    ds = load_dataset(args.data)
    n = len(ds)
    n_test = max(1, n // 5)
    # the held-out rows are scored (R² needs two) and the rest are split into folds
    if n_test < 2 or n - n_test < args.folds:
        raise ValueError(f"--data has {n} rows, too few to hold out a fifth of 2 or more and keep --folds ({args.folds})")
    if args.k_max > n:
        raise ValueError(f"--k-max must be at most the --data row count ({n}), got {args.k_max}")
    rng = np.random.default_rng(args.seed)
    test_idx = rng.choice(n, size=n_test, replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True

    # the training split's forest picks (d, s) and is scored on the held-out
    # rows; the saved models are then fitted on all rows at that (d, s)
    model = fit_cpu_time_model(
        ds.used_gas[~mask],
        ds.cpu_time[~mask],
        d_grid=d_grid,
        s_grid=s_grid,
        folds=args.folds,
        seed=args.seed,
    )
    train = regression_metrics(ds.cpu_time[~mask], model.predict(ds.used_gas[~mask]))
    test = regression_metrics(ds.cpu_time[mask], model.predict(ds.used_gas[mask]))
    final = fit_workload(
        ds.used_gas,
        ds.gas_price,
        ds.cpu_time,
        k_max=args.k_max,
        tree_count=model.tree_count,
        split_budget=model.split_budget,
        seed=args.seed,
    )
    final.save(args.out)

    print(f"gas price mixture: K = {final.gas_price_model.k} (BIC)")
    print(f"used gas mixture:  K = {final.used_gas_model.k} (BIC)")
    print(f"cpu-time forest:   d = {model.tree_count}, s = {model.split_budget}")
    print(f"train: MAE {train['mae']:.6g}  RMSE {train['rmse']:.6g}  R2 {train['r2']:.4f}")
    print(f"test:  MAE {test['mae']:.6g}  RMSE {test['rmse']:.6g}  R2 {test['r2']:.4f}")
    print(f"wrote fitted models to {args.out}")
    return 0


def cmd_sample(args) -> int:
    from verisim.dataio import Dataset, write_dataset
    from verisim.workload import FittedWorkload, sample_transaction_arrays

    require_integer("--n", args.n)
    wl = FittedWorkload.load(args.model)
    rng = np.random.default_rng(args.seed)
    # the dataset CSV has no conflict column, so no flag is drawn
    cols = sample_transaction_arrays(wl, args.n, 0.0, rng)
    ds = Dataset(cols["used_gas"], cols["gas_price"], cols["cpu_time"])
    write_dataset(ds, args.out)
    print(f"sampled {args.n} transactions to {args.out}")
    return 0


def cmd_analytic(args) -> int:
    import csv
    from dataclasses import replace

    from verisim.analytics import PowerProfile, VerificationParams, reward_table
    from verisim.blocks import measure_verification_times
    from verisim.config import standard_miners
    from verisim.workload import FittedWorkload, check_block_limit

    limits = [check_block_limit(limit) for limit in _numbers("--limits", args.limits)]
    if not limits:
        raise ValueError(f"--limits must list at least one block limit, got {args.limits!r}")
    profile = PowerProfile(standard_miners(nonverifier_alpha=args.nonverifier_alpha))  # before t_v is measured
    params = VerificationParams(t_v=0.0, t_b=args.t_b, c=args.conflict_rate, p=args.processors)
    if params.p == 1 and params.c:
        raise ValueError(f"--conflict-rate is not read unless --processors is above 1, got {args.conflict_rate}")
    if args.t_v:
        for flag, value in (("--seed", args.seed), ("--tv-blocks", args.tv_blocks), ("--model", args.model)):
            if value is not None:
                raise ValueError(f"{flag} is not read when --t-v is given")
        tvs = _numbers("--t-v", args.t_v, float)
        if len(tvs) != len(limits):
            raise ValueError(f"--t-v needs one value per block limit, got {len(tvs)} for {len(limits)}")
    else:
        if not args.model:
            raise ValueError("need --model (to measure t_v) or explicit --t-v values")
        wl = FittedWorkload.load(args.model)
        n_blocks = 400 if args.tv_blocks is None else args.tv_blocks
        seed = 42 if args.seed is None else args.seed
        tvs = [float(np.mean(measure_verification_times(wl, limit, n_blocks, seed=seed))) for limit in limits]

    rows_out = []
    for limit, tv in zip(limits, tvs):
        # at p = 1 the parallel form is the sequential one, bit for bit
        for row in reward_table(profile, replace(params, t_v=tv), mode="parallel"):
            rows_out.append([limit, tv, row.id, row.alpha, int(row.verifies), row.expected_fraction, row.relative_gain_pct])
            if not row.verifies:
                print(
                    f"limit {limit}: t_v {tv:.4f}s -> non-verifier {row.id} "
                    f"fraction {row.expected_fraction:.5f} ({row.relative_gain_pct:+.2f}%)"
                )
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["block_limit", "t_v", "miner_id", "alpha", "verifies",
                             "expected_fraction", "relative_gain_pct"])
            writer.writerows(rows_out)
        print(f"wrote reward table to {args.out}")
    return 0


def _load_scenarios(path):
    import json

    from verisim.config import ScenarioConfig

    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "scenarios" in raw:
        extra = set(raw) - {"scenarios"}
        if extra:
            raise ValueError(f"unknown top-level keys: {sorted(extra)}")
        scenarios = raw["scenarios"]
        if not isinstance(scenarios, list) or not scenarios or not all(isinstance(d, dict) for d in scenarios):
            raise ValueError(f"scenarios: must be a non-empty list of objects, got {scenarios!r}")
        return [ScenarioConfig.from_dict(d) for d in scenarios]
    return [ScenarioConfig.from_dict(raw)]


def cmd_simulate(args) -> int:
    from verisim.scenario import run_sweep
    from verisim.workload import FittedWorkload

    configs = _load_scenarios(args.config)
    workload = FittedWorkload.load(args.workload) if args.workload else None
    report = run_sweep(configs, workload, tv_blocks=args.tv_blocks)
    out = report.write(args.out)
    for cell in report.cells:
        gain = "n/a" if cell.sim_gain_mean_pct is None else f"{cell.sim_gain_mean_pct:+.2f}%"
        print(
            f"config {cell.config_id}: limit {cell.block_limit}, {cell.runs} runs, "
            f"mean t_v {cell.tv_stats['mean']:.4f}s, non-verifier gain {gain}"
        )
    print(f"wrote results to {out}")
    return 0


def cmd_validate(args) -> int:
    from verisim.scenario import check_comparable, run_sweep, validate_sweep
    from verisim.workload import FittedWorkload

    configs = _load_scenarios(args.config)
    # both before any simulation runs
    check_comparable(configs)
    require_finite("tolerance", args.tolerance, 0)
    workload = FittedWorkload.load(args.workload) if args.workload else None
    report = run_sweep(configs, workload, tv_blocks=args.tv_blocks)
    failed = 0
    for cell, relative, passed in validate_sweep(report, args.tolerance):
        failed += not passed
        print(
            f"{'PASS' if passed else 'FAIL'} config {cell.config_id} (limit {cell.block_limit}): "
            f"closed {cell.closed_gain_pct:+.2f}% vs sim {cell.sim_expected_gain_pct:+.2f}%, "
            f"signed deviation {cell.signed_deviation_pct:+.2f} points "
            f"({100 * relative:.1f}% relative, tolerance {100 * args.tolerance:.0f}%)"
        )
    if args.out:
        report.write(args.out)
        print(f"wrote results to {args.out}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="verisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # allow_abbrev=False: flags match only in full, so a retired flag is never read as the prefix of another
    g = sub.add_parser("gen-data", allow_abbrev=False, help="generate a calibrated synthetic transaction CSV")
    g.add_argument("--n", type=int, default=100_000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    f = sub.add_parser("fit", allow_abbrev=False, help="fit mixtures and the CPU-time forest to a dataset")
    f.add_argument("--data", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--seed", type=int, default=42)
    f.add_argument("--k-max", type=int, default=8)
    f.add_argument("--d-grid", default="10,50,100,200,500")
    f.add_argument("--s-grid", default="1,10,50,150,300")
    f.add_argument("--folds", type=int, default=10)
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("sample", allow_abbrev=False, help="sample synthetic transactions from fitted models")
    s.add_argument("--model", required=True)
    s.add_argument("--n", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    a = sub.add_parser("analytic", allow_abbrev=False, help="closed-form reward table over a block-limit sweep")
    a.add_argument("--model", help="fitted-model JSON (source of measured t_v; not with --t-v)")
    a.add_argument("--limits", default="8000000,16000000,32000000,64000000,128000000")
    a.add_argument("--t-v", default="", help="override: comma list of t_v seconds, one per limit")
    a.add_argument("--nonverifier-alpha", type=float, default=0.1)
    a.add_argument("--t-b", type=float, default=12.42)
    a.add_argument("--conflict-rate", type=float, default=0.0)
    a.add_argument("--processors", type=int, default=1)
    a.add_argument("--tv-blocks", type=int, help="blocks packed to measure t_v (default 400; not with --t-v)")
    a.add_argument("--seed", type=int, help="seed of the t_v measurement (default 42; not with --t-v)")
    a.add_argument("--out")
    a.set_defaults(func=cmd_analytic)

    m = sub.add_parser("simulate", allow_abbrev=False, help="run the simulation sweep from a config file")
    m.add_argument("--config", required=True)
    m.add_argument("--workload", help="fitted-model JSON overriding the config's workload path")
    m.add_argument("--tv-blocks", type=int, default=400)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_simulate)

    v = sub.add_parser("validate", allow_abbrev=False, help="compare simulation against the closed form")
    v.add_argument("--config", required=True)
    v.add_argument("--workload")
    v.add_argument("--tolerance", type=float, default=0.25)
    v.add_argument("--tv-blocks", type=int, default=400)
    v.add_argument("--out")
    v.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's own error for a negative seed names no flag, nor does
        # n_blocks's for --tv-blocks; both are checked before any work
        if getattr(args, "seed", None) is not None:
            require_integer("--seed", args.seed, 0)
        if getattr(args, "tv_blocks", None) is not None:
            require_integer("--tv-blocks", args.tv_blocks, 1, MAX_BLOCKS_PER_RUN)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
