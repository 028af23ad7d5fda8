"""The benchmark's workloads: what each sets up, what one operation is, and its gate.

- ``fit_reference``: the reference fit, ``default_workload()`` on a fresh
  60k-row dataset.  Mixture EM dominates; nothing samples or simulates.
- ``sweep_128m_invalid``: an acceptance-scale sequential cell at 128M with an
  invalid-block producer.  Transaction sampling dominates; the rejection and
  fork-resolution path runs.
- ``sweep_8m_parallel``: a parallel cell (c=0.4, p=16).  The only workload
  that runs the LPT kernel, and it samples and predicts with the same mixture
  and forest code that ``fit_reference`` fits.
- ``sweep_8m_100miners``: a sequential cell with 100 miners, where the event
  loop's per-miner work dominates.

The sweeps read the fixed seed-7 model (``perfbench/model.py``), so the fit
stays out of their set-up.  Every input is derived from the run seed:
operation ``i`` of a run with seed ``s`` uses ``s * 1000 + i``.

Timed operations are cut into segments at the coarse library calls (each
simulation run, each EM run of a mixture fit, each forest fit) and every
segment is also adjusted for the host's speed at that moment: the host this
was built on switches between a fast and a ~1.6x slower state every few
seconds, which moves raw times by 20-40 % between identical runs.
"""

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from perfbench import checks, host, model
from verisim import blocks, config, dataio, forest, gmm, scenario, sim, workload


@dataclass(frozen=True)
class Scale:
    fit_rows: int  # dataset rows fitted by fit_reference
    runs: int  # simulation runs per sweep cell
    sim_duration: float  # simulated seconds per run
    tv_blocks: int  # blocks in run_sweep's verification-time measurement
    check_runs: int  # 8M runs a freshly fitted model must drive
    check_duration: float


# 16 runs x 6 simulated hours: 4 simulated days keep the closed-form gate's
# deviation under 0.14 against its 0.25 tolerance, and short runs keep each
# timed segment within one host state
FULL = Scale(fit_rows=60_000, runs=16, sim_duration=21_600.0, tv_blocks=400, check_runs=6, check_duration=86_400.0)
# the same code paths at a size that runs in seconds, for the benchmark's tests
TINY = Scale(fit_rows=2_000, runs=2, sim_duration=3_600.0, tv_blocks=50, check_runs=1, check_duration=3_600.0)


class HostClock:
    """Stopwatch over consecutive segments, each also adjusted for host speed.

    ``mark()`` closes the current segment and probes the canary; a segment's
    adjusted length is its raw length times ``host.CANARY_REF_S`` over the
    mean of the probes at its two ends.  Probes run between segments, never
    inside one.  Without probing (traced runs, whose times are not gated)
    adjusted equals raw.
    """

    def __init__(self, probing: bool):
        self._probing = probing
        self._last = host.probe_s() if probing else host.CANARY_REF_S
        self.raw = self.adjusted = 0.0
        self._t = time.perf_counter()

    def mark(self):
        now = time.perf_counter()
        raw = adjusted = now - self._t
        if self._probing:
            probe = host.probe_s()
            adjusted = raw * host.CANARY_REF_S / (0.5 * (self._last + probe))
            self._last = probe
            now = time.perf_counter()  # the probe is no part of the next segment
        self.raw += raw
        self.adjusted += adjusted
        self._t = now
        return raw, adjusted


@contextlib.contextmanager
def _marking(owner, name, clock, segments=None):
    """Close a clock segment before and after every call to ``owner.name``;
    the call's own segment goes to ``segments``.  A missing name is skipped."""
    inner = getattr(owner, name, None)
    if inner is None:
        yield
        return

    def marked(*args, **kwargs):
        clock.mark()
        try:
            return inner(*args, **kwargs)
        finally:
            segment = clock.mark()
            if segments is not None:
                segments.append(segment)

    setattr(owner, name, marked)
    try:
        yield
    finally:
        setattr(owner, name, inner)


@dataclass
class Outcome:
    wall_s: float  # the timed library call only, raw
    adjusted_s: float  # the same, adjusted for host speed
    # per simulation run: (raw, adjusted) host microseconds per simulated block
    us_per_block: list
    attempted: int  # fits and simulation runs
    failed: int
    failures: list
    fitted: workload.FittedWorkload


def _per_block(segment, blocks):
    return tuple(1e6 * t / blocks for t in segment)


def _check_sims(results):
    failures = []
    failed = 0
    for result in results:
        found = checks.check_sim(result)
        failures += found
        failed += bool(found)
    return failed, failures


def _fit_setup(scale, out_dir):
    return out_dir  # the fit builds everything it uses


def _fit_op(out_dir, scale, op_seed, region, probing):
    clock = HostClock(probing)
    with contextlib.ExitStack() as marks:
        # segment at every EM run and every forest grown: both last well under
        # a second, shorter than the host's fast and slow spells
        for owner, name in ((gmm, "_em_once"), (forest, "_fit_forest_sorted"), (workload, "fit_rfr")):
            marks.enter_context(_marking(owner, name, clock))
        with region():
            fitted = dataio.default_workload(n=scale.fit_rows, seed=op_seed)
        clock.mark()

    path = out_dir / f"fit-{op_seed}.json"
    fitted.save(path)
    try:
        loaded = workload.FittedWorkload.load(path)
    finally:
        path.unlink()
    failures = checks.check_round_trip(fitted, loaded)
    failures += model.check_calibration(model.calibration_tv(fitted))
    failed = int(bool(failures))

    # the fitted model must drive the simulator: a few 8M runs, gated and timed
    cfg = config.ScenarioConfig(
        block_limit=8_000_000,
        miners=config.standard_miners(10, 0.1),
        sim_duration=scale.check_duration,
        runs=1,
        base_seed=op_seed * 100,
    )
    results, per_block = [], []
    sim_clock = HostClock(probing)
    for r in range(scale.check_runs):
        sim_clock.mark()
        result = sim.run_simulation(cfg.with_seed(cfg.base_seed + r), fitted)
        per_block.append(_per_block(sim_clock.mark(), result.total_blocks))
        results.append(result)
    sim_failed, sim_failures = _check_sims(results)
    return Outcome(
        clock.raw, clock.adjusted, per_block, 1 + len(results), failed + sim_failed, failures + sim_failures, fitted
    )


def _sweep_setup(scale, out_dir):
    # load, 8M calibration check, and the forest's merged step function (first predict)
    return model.load_checked()


def _sweep_op(cell):
    def op(fitted, scale, op_seed, region, probing):
        cfg = config.ScenarioConfig(
            **cell, sim_duration=scale.sim_duration, runs=scale.runs, base_seed=op_seed * 100
        )
        runs = []
        clock = HostClock(probing)
        with _marking(scenario, "run_simulation", clock, runs):
            with region():
                report = scenario.run_sweep([cfg], fitted, tv_blocks=scale.tv_blocks, tv_seed=op_seed)
            clock.mark()
        results = report.results[0]
        per_block = [_per_block(segment, r.total_blocks) for segment, r in zip(runs, results)]

        failed, failures = _check_sims(results)
        if cfg.mode == "sequential":
            sequential_tv = report.cells[0].tv_stats["mean"]
        else:
            times = blocks.measure_verification_times(
                fitted, cfg.block_limit, scale.tv_blocks, seed=op_seed, conflict_rate=cfg.c
            )
            sequential_tv = float(np.mean(times))
        cell_failures = checks.check_cell(cfg, results, sequential_tv)
        if cell_failures:
            failed = len(results)
        return Outcome(clock.raw, clock.adjusted, per_block, len(results), failed, failures + cell_failures, fitted)

    return op


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object  # (scale, out_dir) -> state
    op: object  # (state, scale, op_seed, region, probing) -> Outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_reference", _fit_setup, _fit_op),
        Workload(
            "sweep_128m_invalid",
            _sweep_setup,
            _sweep_op(
                dict(
                    block_limit=128_000_000,
                    miners=config.standard_miners(10, 0.1, invalid_rate=0.04),
                    invalid_rate=0.04,
                )
            ),
        ),
        Workload(
            "sweep_8m_parallel",
            _sweep_setup,
            _sweep_op(dict(block_limit=8_000_000, miners=config.standard_miners(10, 0.1), mode="parallel", c=0.4, p=16)),
        ),
        Workload(
            "sweep_8m_100miners",
            _sweep_setup,
            _sweep_op(dict(block_limit=8_000_000, miners=config.standard_miners(100, 0.1))),
        ),
    )
}
