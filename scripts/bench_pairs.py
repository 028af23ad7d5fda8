#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --label NAME [--seeds 10]

``--parent`` and ``--change`` are two checkouts of this repository.  For
seeds 1..N (N >= 10, the fewest pairs a claimed gain is judged on) and
every workload that the change's ``BENCHMARK.json`` lists, the script runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, with T the benchmark's ``run_seconds``: the parent
first on odd seeds, the change first on even ones, so that a drift in host
speed falls on both sides alike.  It writes ``BENCH_<label>.json`` at the
root of the checkout that holds this script after every seed from the
second on, so that a cut-short run keeps the seeds it finished.

For each workload and end-to-end metric the file holds each side's
per-run values, median and quartiles, and how many pairs the change won,
lost and tied, where winning follows the metric's ``better`` direction;
beside them, each side's operation count per run, in seed order, since a
metric such as ``peak_rss_mb`` can step with the number of operations that
fit in a run, and each side's medians of the unadjusted values (``raw``)
that ``run.py`` prints on its info line, before the host-canary scaling.
``claim`` applies the benchmark's rule for a claimed gain: the change wins
at least nine pairs in ten, and the two medians differ by more than the
parent's interquartile range.  Each run keeps the fingerprint and the host
canary that ``run.py`` prints, its operation count and its failures.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` process in ``checkout``: its info line and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=60 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        raise RuntimeError(f"{workload} seed {seed} in {checkout.name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    info, result = json.loads(lines[-3]), json.loads(lines[-1])
    return {
        "seed": seed,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "operations": info["operations"],
        "raw": info["raw"],
        "failures": info["failures"],
        "host_canary_ms": info["host_canary_ms"],
        "fingerprint": info["fingerprint"],
    }


def spread(values: list) -> dict:
    """Median and quartiles (the inclusive method)."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs: list, metric: str, better: str) -> dict:
    """Both sides' spread of one metric over the pairs, the change's pair
    wins, losses and ties, and whether a claimed gain would hold."""
    parent = [p["parent"]["metrics"][metric] for p in pairs]
    change = [p["change"]["metrics"][metric] for p in pairs]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (a - b) > 0 for a, b in zip(parent, change))
    ties = sum(a == b for a, b in zip(parent, change))
    out = {"parent": spread(parent), "change": spread(change)}
    gap = sign * (out["parent"]["median"] - out["change"]["median"])
    iqr = out["parent"]["q3"] - out["parent"]["q1"]
    out.update(
        pairs=len(pairs),
        change_wins=wins,
        change_losses=len(pairs) - wins - ties,
        ties=ties,
        relative_change=(out["change"]["median"] - out["parent"]["median"]) / out["parent"]["median"],
        claim=bool(wins >= 0.9 * len(pairs) and gap > iqr),
    )
    return out


def summarise(label: str, seeds: range, bench: dict, runs: dict) -> dict:
    workloads = {}
    for name, pairs in runs.items():
        metrics = {m["name"]: compare(pairs, m["name"], m["better"]) for m in bench["end_to_end"]
                   if all(m["name"] in p[side]["metrics"] for p in pairs for side in SIDES)}
        operations = {side: [p[side]["operations"] for p in pairs] for side in SIDES}
        raw = {side: {key: statistics.median(p[side]["raw"][key] for p in pairs)
                      for key in pairs[0][side]["raw"] if all(key in p[side]["raw"] for p in pairs)}
               for side in SIDES}
        workloads[name] = {"metrics": metrics, "operations": operations, "raw_medians": raw, "pairs": pairs}
    return {
        "label": label,
        "command": bench["command"] + ["--workload", "W", "--seed", "S", "--seconds", str(bench["run_seconds"]), "--trace", "0"],
        "order": "parent first on odd seeds, change first on even seeds",
        "seeds": list(seeds),
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--label", required=True, help="the output file is BENCH_<label>.json")
    parser.add_argument("--seeds", type=int, default=10, help="pairs per workload (default 10, at least 10)")
    args = parser.parse_args(argv)
    if args.seeds < 10:
        parser.error("--seeds must be >= 10")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, args.seeds + 1)
    out = ROOT / f"BENCH_{args.label}.json"
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {name: [] for name in names}
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        for name in names:
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], name, seed, bench["run_seconds"])
            runs[name].append(pair)
            line = "  ".join(f"{m}={pair['parent']['metrics'][m]:.4g}->{pair['change']['metrics'][m]:.4g}"
                             for m in pair["parent"]["metrics"])
            line += f"  operations={pair['parent']['operations']}->{pair['change']['operations']}"
            print(f"seed {seed} {name}: {line}", file=sys.stderr, flush=True)
        if seed > 1:  # quartiles need two pairs
            out.write_text(json.dumps(summarise(args.label, seeds[:seed], bench, runs), indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
