"""The benchmark reads the library by name.

Its tracer wraps library functions by name: a refactor that renames or
removes one of them, or a caller that bypasses the wrapped name (a module
that imports ``lpt_makespan`` itself instead of calling it through
``kernels``), would leave its per-layer metric silently at zero, and one
that renames a parameter the tracer reads (``fit_gmm``'s ``k_min`` and
``k_max``) would fail every traced operation.  Its workloads call
``default_workload`` and ``run_sweep`` and read what they return: a change to
what they read would fail every benchmark run.  These tests make all three
fail loudly here.
"""

import json

import pytest

from perfbench.run import ROOT, measure
from perfbench.tracer import Tracer
from perfbench.workloads import TINY, WORKLOADS

# per workload, the layers it exists to exercise: a traced run must record
# work there, not only resolve the names
BUSY = {
    "fit_reference": ("gmm.search_s", "kernels.best_split_calls"),
    "sweep_128m_invalid": ("workload.txs_sampled", "sim.rejected_blocks"),
    "sweep_8m_parallel": ("kernels.lpt_calls", "blocks.parallel_self_s"),
    "sweep_8m_100miners": ("sim.fork_choice_calls",),
}


def test_every_traced_name_resolves():
    tracer = Tracer().install()
    try:
        assert tracer.absent == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_runs_correctly(name, tmp_path):
    run = measure(name, seed=1, seconds=0, trace=False, scale=TINY, out_dir=tmp_path)
    assert run["result"]["correct"], run["info"]["failures"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_benchmark_workload_reports_every_layer(name, tmp_path):
    run = measure(name, seed=1, seconds=0, trace=True, scale=TINY, out_dir=tmp_path)
    assert run["result"]["correct"], run["info"]["failures"]
    metrics = run["result"]["metrics"]
    per_layer = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert per_layer <= set(metrics)
    assert [key for key in BUSY[name] if metrics[key]["value"] <= 0] == []
