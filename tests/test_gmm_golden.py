"""Golden mixture fits: the EM code must reproduce them bit for bit.

The recorded file holds the ``repr`` of the k-means++ seeds, of single EM runs
with their likelihood traces, and of fitted models, on two columns of a small
synthetic dataset: the clipped used gas (its 21000 spike drives a component to
the variance floor) and the gas price.  The ``default_workload`` entry holds
both mixtures of the reference recipe, which searches K on a subsample and
refits the winner on all rows.  A change to the EM internals that keeps its
arithmetic leaves every entry unchanged.  Re-record only when the
arithmetic changes on purpose::

    PYTHONPATH=src python -m tests.test_gmm_golden
"""

import json
import pathlib

import numpy as np
import pytest

from verisim.dataio import generate_synthetic_dataset
from verisim.gmm import VARIANCE_FLOOR, _em_once, _kmeans_seed, fit_gmm

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "gmm_golden.json"

SEED_KS = (1, 2, 3, 6, 8, 17)
EM_KS = (1, 2, 3, 6, 7, 8, 9, 17)
FIT_KS = (1, 2, 3, 4, 5, 6)


def _columns():
    ds = generate_synthetic_dataset(2000, seed=11)
    return {
        "used_gas": ds.used_gas.astype(np.float64),
        "gas_price": ds.gas_price,
    }


def _arrays(values) -> str:
    return repr([np.asarray(v).tolist() for v in values])


def _em(x, k, seed):
    trace = []
    result = _em_once(x, *_kmeans_seed(x, k, np.random.default_rng(seed)), trace)
    return {"result": "None" if result is None else _arrays(result), "trace": repr(trace)}


def _entries() -> dict:
    out = {}
    for column, values in _columns().items():
        x = np.log(values)  # what fit_gmm hands to EM
        for k in SEED_KS:
            out[f"{column}/seed/k{k}"] = _arrays(_kmeans_seed(x, k, np.random.default_rng(100 + k)))
        for k in EM_KS:
            out[f"{column}/em/k{k}"] = _em(x, k, 200 + k)
        for k in FIT_KS:
            out[f"{column}/fit/k{k}"] = repr(fit_gmm(values, k, k, seed=300 + k).to_dict())
        out[f"{column}/fit/search"] = repr(fit_gmm(values, 1, 6, seed=400).to_dict())
    return out


def _default_workload_entry(wl) -> dict:
    return {name: repr(getattr(wl, name).to_dict()) for name in ("gas_price_model", "used_gas_model")}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def entries():
    return _entries()


def test_same_keys(golden, entries):
    assert sorted([*entries, "default_workload"]) == sorted(golden)


@pytest.mark.parametrize("column", ["used_gas", "gas_price"])
def test_matches_golden(column, golden, entries):
    for key in sorted(golden):
        if key.startswith(column + "/"):
            assert entries[key] == golden[key], key


def test_default_workload_mixtures_match_golden(golden, fitted_workload):
    assert _default_workload_entry(fitted_workload) == golden["default_workload"]


def test_used_gas_reaches_variance_floor(golden):
    # the clip spike at 21000 must exercise the floor, or the file tests less than it claims
    floored = [key for key, text in golden.items() if key.startswith("used_gas/fit/") and repr(VARIANCE_FLOOR) in text]
    assert floored


def record():
    from verisim.dataio import default_workload

    entries = {**_entries(), "default_workload": _default_workload_entry(default_workload())}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
