#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` it carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics, measured by wrapping verisim's functions from outside.
The line before it names every metric with its unit, and the line before
that holds the run's fingerprint, the host canary and the failure share.
A traced run also writes its spans and records to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The process keeps to one thread: BLAS is pinned to one thread before numpy
loads, so the fit's matrix products do not compete with the Python thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "sim_us_per_block": "us", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "dataio.generate_s": "s",
    "workload.fit_self_s": "s",
    "gmm.search_s": "s",
    "gmm.refit_s": "s",
    "gmm.sample_s": "s",
    "gmm.k_used_gas": "count",
    "gmm.k_gas_price": "count",
    "forest.cv_s": "s",
    "forest.refit_s": "s",
    "forest.predict_s": "s",
    "kernels.best_split_s": "s",
    "kernels.best_split_calls": "count",
    "kernels.lpt_s": "s",
    "kernels.lpt_calls": "count",
    "workload.load_s": "s",
    "workload.sample_s": "s",
    "workload.txs_sampled": "count",
    "workload.tx_use_ratio": "ratio",
    "blocks.pack_self_s": "s",
    "blocks.parallel_self_s": "s",
    "blocks.measure_tv_s": "s",
    "blocks.blocks_packed": "count",
    "sim.loop_self_s": "s",
    "sim.fork_choice_s": "s",
    "sim.fork_choice_calls": "count",
    "sim.blocks": "count",
    "sim.rejected_blocks": "count",
    "scenario.sweep_self_s": "s",
    "analytics.closed_form_s": "s",
    "trace.span_s": "s",
    "trace.overhead_frac": "ratio",
}


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import verisim and the benchmark's workloads."""
    code = "import time; t0 = time.perf_counter(); import perfbench.workloads; print(time.perf_counter() - t0)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(ROOT))))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def layer_metrics(ops: dict, setup: dict, n_ops: int, n_setups: int, span_s: float, per_call_s: float, fitted) -> dict:
    """Per-operation layer numbers from the tracer's records.

    Every ``_s`` value except ``trace.span_s`` is a self time: the wrapped
    call's duration minus the wrapped calls made inside it, so they add up
    to the traced span.  ``workload.load_s`` is per set-up, the rest per
    operation.
    """
    from perfbench.tracer import self_s, wrapped_calls

    def own(key):
        return self_s(ops, key) / n_ops

    def per_op(key, field=0):
        return ops[key][field] / n_ops

    sampled, packed = ops["workload.sample"][3], ops["blocks.pack"][3]
    overhead = wrapped_calls(ops) / n_ops * per_call_s
    return {
        "dataio.generate_s": own("dataio.generate"),
        "workload.fit_self_s": own("workload.fit"),
        "gmm.search_s": own("gmm.search"),
        "gmm.refit_s": own("gmm.refit"),
        "gmm.sample_s": own("gmm.sample"),
        "gmm.k_used_gas": fitted.used_gas_model.k,
        "gmm.k_gas_price": fitted.gas_price_model.k,
        "forest.cv_s": own("forest.cv"),
        "forest.refit_s": own("forest.refit"),
        "forest.predict_s": own("forest.predict"),
        "kernels.best_split_s": own("kernels.best_split"),
        "kernels.best_split_calls": per_op("kernels.best_split"),
        "kernels.lpt_s": own("kernels.lpt"),
        "kernels.lpt_calls": per_op("kernels.lpt"),
        "workload.load_s": self_s(setup, "workload.load") / n_setups,
        "workload.sample_s": own("workload.sample"),
        "workload.txs_sampled": sampled / n_ops,
        "workload.tx_use_ratio": packed / sampled if sampled else 0.0,
        "blocks.pack_self_s": own("blocks.pack"),
        "blocks.parallel_self_s": own("blocks.parallel"),
        "blocks.measure_tv_s": own("blocks.measure_tv"),
        "blocks.blocks_packed": per_op("blocks.pack"),
        "sim.loop_self_s": own("sim.run"),
        "sim.fork_choice_s": own("sim.fork_choice"),
        "sim.fork_choice_calls": per_op("sim.fork_choice"),
        "sim.blocks": per_op("sim.run", 3),
        "sim.rejected_blocks": per_op("sim.run", 4),
        "scenario.sweep_self_s": own("scenario.sweep"),
        "analytics.closed_form_s": own("analytics.reward_table"),
        "trace.span_s": span_s,
        "trace.overhead_frac": overhead / (span_s - overhead),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, scale=None, out_dir=OUT_DIR) -> dict:
    """Set the workload up, repeat its operation for ``seconds``, gate and summarise."""
    from perfbench import host
    from perfbench.tracer import Tracer, self_s, wrapped_calls
    from perfbench.workloads import FULL, WORKLOADS, HostClock

    scale = FULL if scale is None else scale
    workload = WORKLOADS[name]
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer().install() if trace else None

    def region(label):
        return (lambda: tracer.root(label)) if tracer else contextlib.nullcontext

    try:
        canary_before = host.canary_ms()
        # each set-up: a fresh interpreter's imports, then the workload's lazy set-up
        setup_raw, setup_adjusted = [], []
        clock = HostClock(probing=not trace)
        for _ in range(SETUP_REPEATS):
            imported = fresh_import_s()
            spawn_raw, spawn_adjusted = clock.mark()
            with region("setup")():
                state = workload.setup(scale, out_dir)
            raw, adjusted = clock.mark()
            setup_raw.append(imported + raw)
            setup_adjusted.append(imported * spawn_adjusted / spawn_raw + adjusted)
        setup_snap = tracer.take() if tracer else None

        outcomes, failures = [], []
        attempted = failed = 0
        start = time.perf_counter()
        i = 0
        while True:
            op_seed = seed * 1000 + i
            i += 1
            try:
                outcome = workload.op(state, scale, op_seed, region("op"), probing=not trace)
            except Exception:  # a broken operation is a gate failure, not a crash
                attempted += 1
                failed += 1
                failures.append(f"operation seed {op_seed} raised:\n{traceback.format_exc()}")
            else:
                outcomes.append(outcome)
                attempted += outcome.attempted
                failed += outcome.failed
                failures += outcome.failures
            if time.perf_counter() - start >= seconds:
                break
        ops_snap = tracer.take() if tracer else None
        canary_after = host.canary_ms()
    finally:
        if tracer:
            tracer.uninstall()

    metrics, raw = {}, {}
    if outcomes:
        walls = [o.wall_s for o in outcomes]
        per_block = [v for o in outcomes for v in o.us_per_block]
        raw = {
            "setup_s": statistics.median(setup_raw),
            "op_s": statistics.median(walls),
            "sim_us_per_block": statistics.median(unadjusted for unadjusted, _ in per_block),
        }
        if tracer:
            metrics = layer_metrics(
                ops_snap, setup_snap, len(walls), SETUP_REPEATS, statistics.fmean(walls), tracer.per_call_s, outcomes[-1].fitted
            )
        else:
            metrics = {
                "setup_s": statistics.median(setup_adjusted),
                "op_s": statistics.median(o.adjusted_s for o in outcomes),
                "sim_us_per_block": statistics.median(adjusted for _, adjusted in per_block),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    units = PER_LAYER_UNITS if tracer else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and bool(outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units if key in metrics},
    }
    info = {
        "workload": name,
        "seed": seed,
        "operations": len(outcomes),
        "failed_frac": failed / attempted,
        "failures": failures[:5],
        "host_canary_ms": {"before": canary_before, "after": canary_after},
        "raw": raw,
        "fingerprint": host.fingerprint(ROOT),
    }
    if tracer:
        info["absent"] = tracer.absent
        n_ops = max(len(outcomes), 1)
        unattributed = sum(o.wall_s for o in outcomes) - sum(self_s(ops_snap, key) for key in ops_snap)
        tracer.dump(
            out_dir / f"trace-{name}-seed{seed}.json",
            info=info,
            phases={"setup": setup_snap, "ops": ops_snap},
            unattributed_s_per_op=unattributed / n_ops,
            wrapped_calls_per_op=wrapped_calls(ops_snap) / n_ops,
            metrics=metrics,
        )
    return {"info": info, "result": result}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "verisim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no verisim sources under {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]

    import verisim
    from perfbench import workloads

    if pathlib.Path(verisim.__file__).resolve().parent != SRC / "verisim":
        sys.exit(f"perfbench: imported verisim from {verisim.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(run["info"]))
    print("  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in run["result"]["metrics"].items()))
    print(json.dumps(run["result"]))


if __name__ == "__main__":
    main()
