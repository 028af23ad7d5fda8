"""The benchmark's own tests: tiny-scale smoke of every workload, the gate,
the trace accounting, and the refusal to run without sources.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import checks, model
from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, measure
from perfbench.tracer import POINTS, Point, Tracer, self_s
from perfbench.workloads import TINY, WORKLOADS
from verisim import config, scenario, sim

NAMES = sorted(WORKLOADS)


@pytest.fixture(scope="module")
def fixed_model():
    return model.load_checked()


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("name", NAMES)
def test_smoke_every_workload(name, tmp_path):
    run = measure(name, seed=1, seconds=0, trace=False, scale=TINY, out_dir=tmp_path)
    result = run["result"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert run["info"]["fingerprint"]["kernel_backend"] in ("native", "fallback")


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    run = measure(name, seed=1, seconds=0, trace=True, scale=TINY, out_dir=tmp_path)
    assert set(run["result"]["metrics"]) == set(PER_LAYER_UNITS)
    assert run["info"]["absent"] == []
    dumped = json.loads((tmp_path / f"trace-{name}-seed1.json").read_text())
    assert dumped["spans"] and dumped["phases"]["ops"]


def _op_walls(workload, state, region, seed, repeats=3):
    return statistics.median(workload.op(state, TINY, seed, region, probing=False).wall_s for _ in range(repeats))


@pytest.mark.parametrize("name", NAMES)
def test_layer_self_times_and_overhead_account_for_the_span(name, tmp_path):
    workload = WORKLOADS[name]
    state = workload.setup(TINY, tmp_path)
    untraced = _op_walls(workload, state, contextlib.nullcontext, seed=5)

    tracer = Tracer().install()
    try:
        traced = workload.op(state, TINY, 5, lambda: tracer.root("op"), probing=False).wall_s
        snap = tracer.take()
    finally:
        tracer.uninstall()
    layers = sum(self_s(snap, key) for key in snap)
    # every traced second lands in some layer's self time; the rest is glue
    assert layers <= traced
    assert layers >= 0.95 * traced
    overhead = sum(rec[0] for rec in snap.values()) * tracer.per_call_s
    assert (layers - overhead) == pytest.approx(untraced, rel=0.35)


def test_gate_failure_raises_failed_frac(monkeypatch, tmp_path):
    real_run_sweep = scenario.run_sweep

    def corrupted(configs, workload, **kwargs):
        report = real_run_sweep(configs, workload, **kwargs)
        first = report.results[0][0]
        miners = (replace(first.miners[0], fee_fraction=first.miners[0].fee_fraction + 0.01),) + first.miners[1:]
        report.results[0][0] = replace(first, miners=miners)
        return report

    monkeypatch.setattr(scenario, "run_sweep", corrupted)
    run = measure("sweep_8m_parallel", seed=1, seconds=0, trace=False, scale=TINY, out_dir=tmp_path)
    assert run["result"]["failed"] >= 1
    assert run["result"]["correct"] is False
    assert run["info"]["failed_frac"] > 0
    assert "fee fractions" in run["info"]["failures"][0]


def test_gate_checks_each_property(fixed_model):
    cfg = config.ScenarioConfig(
        block_limit=8_000_000,
        miners=config.standard_miners(10, 0.1, invalid_rate=0.04),
        invalid_rate=0.04,
        sim_duration=7200.0,
        base_seed=3,
    )
    result = sim.run_simulation(cfg, fixed_model)
    assert checks.check_sim(result) == []
    assert checks.check_sim(replace(result, stale_blocks=result.stale_blocks + 1))
    punisher = [m for m in result.miners if m.produces_invalid][0]
    cheat = tuple(replace(m, canonical_blocks=1) if m is punisher else m for m in result.miners)
    assert checks.check_sim(replace(result, miners=cheat))
    # a cell whose simulation disagrees with the closed form by far more than 25%
    assert checks.check_cell(cfg, [result], sequential_tv=10.0)
    assert model.check_calibration(0.30)


def test_parallel_closed_form_takes_the_sequential_time(fixed_model):
    cfg = config.ScenarioConfig(
        block_limit=8_000_000, miners=config.standard_miners(10, 0.1), mode="parallel", c=0.4, p=16
    )
    seq = replace(cfg, mode="sequential")
    factor = cfg.c + (1 - cfg.c) / cfg.p
    # discounting once: the parallel gain at t_v equals the sequential gain at factor * t_v
    assert checks.closed_form_gain_pct(cfg, 0.23) == pytest.approx(checks.closed_form_gain_pct(seq, 0.23 * factor))


def test_round_trip_check_spots_a_different_model(fixed_model, tmp_path):
    path = tmp_path / "model.json"
    fixed_model.save(path)
    loaded = type(fixed_model).load(path)
    assert checks.check_round_trip(fixed_model, loaded) == []
    forest = loaded.cpu_time_model
    tree = forest.trees[0]
    bumped = replace(tree, values=tree.values * 1.5)
    other = replace(loaded, cpu_time_model=type(forest)(forest.tree_count, forest.split_budget, [bumped] + forest.trees[1:]))
    assert checks.check_round_trip(fixed_model, other)


def test_stale_model_fails_loudly(fixed_model, tmp_path):
    forest = fixed_model.cpu_time_model
    slow = [replace(t, values=t.values * 2.0) for t in forest.trees]
    stale = replace(fixed_model, cpu_time_model=type(forest)(forest.tree_count, forest.split_budget, slow))
    path = tmp_path / "stale.json"
    stale.save(path)
    with pytest.raises(model.StaleModelError, match="perfbench/model.py"):
        model.load_checked(path)


def test_missing_wrapped_name_is_reported_absent():
    original = sim.fork_choice
    tracer = Tracer(POINTS + (Point("verisim.sim", "no_such_function", "sim.fork_choice"),)).install()
    try:
        assert tracer.absent == ["verisim.sim.no_such_function"]
        assert sim.fork_choice is not original
    finally:
        tracer.uninstall()
    assert sim.fork_choice is original


def test_cli_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_8m_parallel", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

