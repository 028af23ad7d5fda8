"""Golden CLI outputs: ``verisim simulate``, ``sample``, ``analytic``,
``gen-data`` and ``fit`` must write the recorded files byte for byte.

The recorded file holds the exact text of ``results.csv``, ``summary.csv`` and
``configs.json`` from one three-cell ``simulate`` sweep on the toy workload,
and of the CSV from one ``sample`` call.  The cells are a sequential 8M cell
with a 0.1 non-verifier, a parallel 32M cell (c=0.4, p=4) and an all-verifier
8M cell, whose summary gain columns are empty.  It also holds two ``analytic``
reward tables, one with t_v measured on the toy workload (parallel, c=0.4,
p=4, limits 8M and 32M) and one with an explicit t_v, one 300-row
``gen-data`` dataset, and the ``workload.json`` that ``fit`` writes from that
dataset.  A refactor that keeps the outputs leaves every file unchanged.
Re-record only when an output changes on purpose::

    PYTHONPATH=src python -m tests.test_cli_golden
"""

import json
import pathlib
import tempfile

import pytest

from tests.helpers import toy_workload
from verisim.cli import main as cli_main

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

SIMULATE_FILES = ("results.csv", "summary.csv", "configs.json")


def _cell(block_limit, nonverifier=True, **kw):
    miners = [{"id": f"v{i}", "alpha": 0.1} for i in range(9)]
    miners.insert(0, {"id": "skip", "alpha": 0.1, "verifies": False} if nonverifier else {"id": "v9", "alpha": 0.1})
    return dict(block_limit=block_limit, sim_duration=1800.0, runs=2, base_seed=31, miners=miners, **kw)


SCENARIOS = {
    "scenarios": [
        _cell(8_000_000),
        _cell(32_000_000, mode="parallel", c=0.4, p=4),
        _cell(8_000_000, nonverifier=False),
    ]
}

ANALYTIC_CALLS = {
    "measured.csv": lambda model: [
        "--model", str(model), "--limits", "8000000,32000000", "--tv-blocks", "40",
        "--conflict-rate", "0.4", "--processors", "4",
    ],
    "explicit.csv": lambda model: ["--limits", "128000000", "--t-v", "3.18", "--t-b", "12.0"],
}

GOLDEN_NAMES = (
    [f"simulate/{n}" for n in SIMULATE_FILES]
    + ["sample/sampled.csv"]
    + [f"analytic/{n}" for n in ANALYTIC_CALLS]
    + ["gen-data/dataset.csv", "fit/workload.json"]
)


def _outputs(root: pathlib.Path) -> dict:
    model = root / "toy.json"
    toy_workload().save(model)
    cfg = root / "sweep.json"
    cfg.write_text(json.dumps(SCENARIOS), encoding="utf-8")
    out = root / "sim"
    argv = ["simulate", "--config", str(cfg), "--workload", str(model), "--tv-blocks", "40", "--out", str(out)]
    assert cli_main(argv) == 0
    sampled = root / "sampled.csv"
    assert cli_main(["sample", "--model", str(model), "--n", "300", "--seed", "5", "--out", str(sampled)]) == 0
    files = {f"simulate/{name}": (out / name).read_bytes() for name in SIMULATE_FILES}
    files["sample/sampled.csv"] = sampled.read_bytes()
    for name, argv in ANALYTIC_CALLS.items():
        table = root / name
        assert cli_main(["analytic", *argv(model), "--out", str(table)]) == 0
        files[f"analytic/{name}"] = table.read_bytes()
    dataset = root / "dataset.csv"
    assert cli_main(["gen-data", "--n", "300", "--out", str(dataset)]) == 0
    files["gen-data/dataset.csv"] = dataset.read_bytes()
    fitted = root / "workload.json"
    argv = ["fit", "--data", str(dataset), "--out", str(fitted), "--seed", "5",
            "--k-max", "3", "--d-grid", "5", "--s-grid", "4,8", "--folds", "3"]
    assert cli_main(argv) == 0
    files["fit/workload.json"] = fitted.read_bytes()
    return {name: data.decode("utf-8") for name, data in files.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("cli_golden"))


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_matches_golden(name, golden, outputs):
    assert outputs[name] == golden[name]


def record():
    with tempfile.TemporaryDirectory() as tmp:
        payload = _outputs(pathlib.Path(tmp))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
