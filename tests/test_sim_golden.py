"""Golden simulation results: the simulator must reproduce them bit for bit.

The recorded file holds, for each named run below, the ``repr`` of every
``SimResult`` field.  A change to the simulator's internals that keeps its
semantics and its random draw order finds the same blocks in the same order,
so every count, fee and fee or reward fraction keeps its bits.  Only
``expected_fraction`` may move, in its last digits, when the change reorders
the float additions behind the uptimes.  Such a change must still pass
``tests/test_sim_oracle.py``, which compares the simulator with the per-miner
vector loop: every other field bit for bit, ``expected_fraction`` to 1e-12
relative.  Re-record then, or when the semantics change on purpose::

    PYTHONPATH=src python -m tests.test_sim_golden
"""

import dataclasses
import json
import pathlib

import pytest

from tests.helpers import toy_workload
from verisim.config import MinerConfig, ScenarioConfig, standard_miners
from verisim.sim import SimResult, run_simulation

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "sim_golden.json"


def _config(miners, duration=7200.0, seed=42, block_limit=8_000_000, **kw):
    return ScenarioConfig(
        block_limit=block_limit, miners=miners, sim_duration=duration, runs=1, base_seed=seed, **kw
    )


RUNS = {
    "seq_10_nonverifier": _config(standard_miners(10, 0.1), seed=21),
    "parallel_c04_p16": _config(standard_miners(10, 0.1), seed=22, mode="parallel", c=0.4, p=16),
    "invalid_004_128m": _config(
        standard_miners(10, 0.1, invalid_rate=0.04), duration=3600.0, seed=23, block_limit=128_000_000, invalid_rate=0.04
    ),
    "nonverifier_03_invalid_02": _config(standard_miners(10, 0.3, invalid_rate=0.2), seed=24, invalid_rate=0.2),
    "miners_100": _config(standard_miners(100, 0.1), duration=3600.0, seed=25),
    "single_miner": _config((MinerConfig(id="solo", alpha=1.0),), seed=26),
    "miners_1000": _config(standard_miners(1000, 0.1), duration=3600.0, seed=27),
    # a second non-verifier
    "parallel_two_nonverifiers": _config(
        tuple(dataclasses.replace(m, verifies=False) if m.id == "v1" else m for m in standard_miners(10, 0.1)),
        seed=28,
        mode="parallel",
        c=0.4,
        p=16,
    ),
    # sequential verification runs on one processor: p is ignored
    "seq_p4": _config(standard_miners(10, 0.1), seed=29, p=4),
    # one day: ~7,000 blocks, crossing about fifteen transaction refills and
    # several thousand find-time draws
    "day_10_miners": _config(standard_miners(10, 0.1), duration=86400.0, seed=30),
}


def _fields(result: SimResult) -> dict:
    return {f.name: repr(getattr(result, f.name)) for f in dataclasses.fields(result)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def results():
    wl = toy_workload()
    return {name: run_simulation(cfg, wl) for name, cfg in RUNS.items()}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_matches_golden(name, golden, results):
    assert _fields(results[name]) == golden[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_stale_blocks(name, results):
    # every block of valid ancestry extends the one valid head, so none goes stale
    assert results[name].stale_blocks == 0


def record():
    wl = toy_workload()
    payload = {name: _fields(run_simulation(cfg, wl)) for name, cfg in RUNS.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
