"""Command-line interface: dataset generation, model fitting, analytics, simulation."""

import argparse
import sys

import numpy as np


def _ints(text: str):
    return [int(x) for x in text.split(",") if x.strip()]


def cmd_gen_data(args) -> int:
    from verisim.dataio import generate_synthetic_dataset, write_dataset

    ds = generate_synthetic_dataset(args.n, args.seed, args.block_limit)
    write_dataset(ds, args.out)
    print(f"wrote {len(ds)} transactions to {args.out}")
    return 0


def cmd_fit(args) -> int:
    from verisim.dataio import load_dataset
    from verisim.stats import regression_metrics
    from verisim.workload import fit_cpu_time_model, fit_workload

    # the mixtures are fitted after the split's forest: reject their K range first
    if not 1 <= args.k_min <= args.k_max:
        raise ValueError(f"need 1 <= --k-min <= --k-max, got {args.k_min} and {args.k_max}")
    ds = load_dataset(args.data, args.block_limit)
    n = len(ds)
    rng = np.random.default_rng(args.seed)
    test_idx = rng.choice(n, size=max(1, n // 5), replace=False)
    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True

    # the training split's forest picks (d, s) and is scored on the held-out
    # rows; the saved models are then fitted on all rows at that (d, s)
    model = fit_cpu_time_model(
        ds.used_gas[~mask],
        ds.cpu_time[~mask],
        d_grid=_ints(args.d_grid),
        s_grid=_ints(args.s_grid),
        folds=args.folds,
        seed=args.seed,
        cv_subsample=args.cv_subsample,
    )
    train = regression_metrics(ds.cpu_time[~mask], model.predict(ds.used_gas[~mask]))
    test = regression_metrics(ds.cpu_time[mask], model.predict(ds.used_gas[mask]))
    final = fit_workload(
        ds.used_gas,
        ds.gas_price,
        ds.cpu_time,
        k_min=args.k_min,
        k_max=args.k_max,
        criterion=args.criterion,
        d_grid=[model.tree_count],
        s_grid=[model.split_budget],
        folds=args.folds,
        seed=args.seed,
        cv_subsample=args.cv_subsample,
        gmm_subsample=args.gmm_subsample,
        block_limit=args.block_limit,
    )
    final.save(args.out)

    print(f"gas price mixture: K = {final.gas_price_model.k} (criterion {args.criterion})")
    print(f"used gas mixture:  K = {final.used_gas_model.k} (criterion {args.criterion})")
    print(f"cpu-time forest:   d = {model.tree_count}, s = {model.split_budget}")
    print(f"train: MAE {train['mae']:.6g}  RMSE {train['rmse']:.6g}  R2 {train['r2']:.4f}")
    print(f"test:  MAE {test['mae']:.6g}  RMSE {test['rmse']:.6g}  R2 {test['r2']:.4f}")
    print(f"wrote fitted models to {args.out}")
    return 0


def cmd_sample(args) -> int:
    from verisim.dataio import Dataset, write_dataset
    from verisim.workload import FittedWorkload, sample_transaction_arrays

    wl = FittedWorkload.load(args.model)
    rng = np.random.default_rng(args.seed)
    # the dataset CSV has no conflict column, so no flag is drawn
    cols = sample_transaction_arrays(wl, args.n, 0.0, rng)
    # the dataset schema keeps a gas limit; nothing simulated reads it, so it
    # is drawn here, uniform in [used gas, block limit], from rng's own stream
    gas_limit = rng.integers(cols["used_gas"], wl.block_limit + 1, dtype=np.int64)
    ds = Dataset(cols["used_gas"], gas_limit, cols["gas_price"], cols["cpu_time"])
    write_dataset(ds, args.out)
    print(f"sampled {args.n} transactions to {args.out}")
    return 0


def cmd_analytic(args) -> int:
    import csv

    from verisim.analytics import VerificationParams, reward_table, uniform_profile
    from verisim.blocks import measure_verification_times
    from verisim.workload import FittedWorkload, check_block_limit

    limits = [check_block_limit(limit) for limit in _ints(args.limits)]
    profile = uniform_profile(args.miners, args.nonverifier_alpha)  # before t_v is measured
    if args.t_v:
        tvs = [float(x) for x in args.t_v.split(",")]
        if len(tvs) != len(limits):
            print("--t-v needs one value per block limit", file=sys.stderr)
            return 2
    else:
        if not args.model:
            print("need --model (to measure t_v) or explicit --t-v values", file=sys.stderr)
            return 2
        wl = FittedWorkload.load(args.model)
        tvs = [
            float(np.mean(measure_verification_times(wl, limit, args.tv_blocks, seed=args.seed)))
            for limit in limits
        ]

    rows_out = []
    for limit, tv in zip(limits, tvs):
        params = VerificationParams(t_v=tv, t_b=args.t_b, c=args.conflict_rate, p=args.processors)
        for row in reward_table(profile, params, mode=args.mode):
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


def _load_scenarios(path, seed=None, runs=None):
    import json
    from dataclasses import replace

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
        configs = [ScenarioConfig.from_dict(d) for d in scenarios]
    else:
        configs = [ScenarioConfig.from_dict(raw)]
    if seed is not None:
        configs = [replace(c, base_seed=seed) for c in configs]
    if runs is not None:
        configs = [replace(c, runs=runs) for c in configs]
    return configs


def cmd_simulate(args) -> int:
    from verisim.scenario import run_sweep
    from verisim.workload import FittedWorkload

    configs = _load_scenarios(args.config, args.seed, args.runs)
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
    from verisim.fields import require_finite
    from verisim.scenario import check_comparable, run_sweep, validate_sweep
    from verisim.workload import FittedWorkload

    configs = _load_scenarios(args.config, args.seed, args.runs)
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

    g = sub.add_parser("gen-data", help="generate a calibrated synthetic transaction CSV")
    g.add_argument("--n", type=int, default=100_000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--block-limit", type=int, default=8_000_000)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    f = sub.add_parser("fit", help="fit mixtures and the CPU-time forest to a dataset")
    f.add_argument("--data", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--seed", type=int, default=42)
    f.add_argument("--k-min", type=int, default=1)
    f.add_argument("--k-max", type=int, default=8)
    f.add_argument("--criterion", choices=["aic", "bic"], default="bic")
    f.add_argument("--d-grid", default="10,50,100,200,500")
    f.add_argument("--s-grid", default="1,10,50,150,300")
    f.add_argument("--folds", type=int, default=10)
    f.add_argument("--cv-subsample", type=int, default=20_000,
                   help="rows used in the grid-search CV (winner refits on all rows)")
    f.add_argument("--gmm-subsample", type=int, default=20_000,
                   help="rows used to pick the mixture component count (refit on all rows)")
    f.add_argument("--block-limit", type=int, default=8_000_000)
    f.set_defaults(func=cmd_fit)

    s = sub.add_parser("sample", help="sample synthetic transactions from fitted models")
    s.add_argument("--model", required=True)
    s.add_argument("--n", type=int, default=10_000)
    s.add_argument("--seed", type=int, default=42)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)

    a = sub.add_parser("analytic", help="closed-form reward table over a block-limit sweep")
    a.add_argument("--model", help="fitted-model JSON (source of measured t_v)")
    a.add_argument("--limits", default="8000000,16000000,32000000,64000000,128000000")
    a.add_argument("--t-v", default="", help="override: comma list of t_v seconds, one per limit")
    a.add_argument("--miners", type=int, default=10)
    a.add_argument("--nonverifier-alpha", type=float, default=0.1)
    a.add_argument("--t-b", type=float, default=12.42)
    a.add_argument("--mode", choices=["sequential", "parallel"], default="sequential")
    a.add_argument("--conflict-rate", type=float, default=0.0)
    a.add_argument("--processors", type=int, default=1)
    a.add_argument("--tv-blocks", type=int, default=400)
    a.add_argument("--seed", type=int, default=42)
    a.add_argument("--out")
    a.set_defaults(func=cmd_analytic)

    m = sub.add_parser("simulate", help="run the simulation sweep from a config file")
    m.add_argument("--config", required=True)
    m.add_argument("--workload", help="fitted-model JSON overriding the config's workload path")
    m.add_argument("--seed", type=int, help="override the config's base_seed")
    m.add_argument("--runs", type=int, help="override the config's run count")
    m.add_argument("--tv-blocks", type=int, default=400)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_simulate)

    v = sub.add_parser("validate", help="compare simulation against the closed form")
    v.add_argument("--config", required=True)
    v.add_argument("--workload")
    v.add_argument("--seed", type=int, help="override the config's base_seed")
    v.add_argument("--runs", type=int, help="override the config's run count")
    v.add_argument("--tolerance", type=float, default=0.25)
    v.add_argument("--tv-blocks", type=int, default=400)
    v.add_argument("--out")
    v.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
