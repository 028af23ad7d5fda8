"""Golden forests: the tree-growing code must reproduce them bit for bit.

The recorded file holds the SHA-256 of ``json.dumps(forest.to_dict(),
sort_keys=True)`` for forests grown on synthetic dataset rows (used gas
against CPU time; the 21000-gas clip gives many tied x), at several tree
counts and split budgets; for the forest grown at ``fit_rfr``'s pick on a
small grid, beside the pick itself; and for ``default_workload()``'s forest.
A change to the tree growing that keeps its arithmetic leaves every entry
unchanged.  Re-record only when the arithmetic changes on purpose::

    PYTHONPATH=src python -m tests.test_forest_golden
"""

import hashlib
import json
import pathlib

import pytest

from verisim.dataio import generate_synthetic_dataset
from verisim.forest import fit_forest, fit_rfr

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "forest_golden.json"

TREE_COUNTS = (1, 20)
BUDGETS = (1, 8, 64)
RFR_GRID = dict(d_grid=[3, 10], s_grid=[2, 8], folds=4, seed=17)


def digest(forest) -> str:
    return hashlib.sha256(json.dumps(forest.to_dict(), sort_keys=True).encode("utf-8")).hexdigest()


def _rows(n, seed):
    ds = generate_synthetic_dataset(n, seed=seed)
    return ds.used_gas, ds.cpu_time


def _fit_entries() -> dict:
    xs, ys = _rows(4000, seed=13)
    return {
        f"fit/d{d}/s{s}": digest(fit_forest(xs, ys, d, s, seed=100 * d + s))
        for d in TREE_COUNTS
        for s in BUDGETS
    }


def _rfr_entries() -> dict:
    xs, ys = _rows(2000, seed=14)
    d, s = fit_rfr(xs, ys, **RFR_GRID)
    return {"rfr/pick": repr((d, s)), "rfr/forest": digest(fit_forest(xs, ys, d, s, seed=RFR_GRID["seed"]))}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_same_keys(golden):
    fits = [f"fit/d{d}/s{s}" for d in TREE_COUNTS for s in BUDGETS]
    assert sorted(golden) == sorted([*fits, "rfr/pick", "rfr/forest", "default_workload"])


def test_fit_forest_matches_golden(golden):
    entries = _fit_entries()
    assert entries == {key: golden[key] for key in entries}
    # the dataset's clip spike must tie many x, or the file tests less than it claims
    xs, _ = _rows(4000, seed=13)
    assert (xs == xs.min()).sum() > 100


def test_fit_rfr_pick_matches_golden(golden):
    entries = _rfr_entries()
    assert entries == {key: golden[key] for key in entries}


def test_default_workload_forest_matches_golden(golden, fitted_workload):
    assert digest(fitted_workload.cpu_time_model) == golden["default_workload"]


def record():
    from verisim.dataio import default_workload

    entries = {**_fit_entries(), **_rfr_entries(), "default_workload": digest(default_workload().cpu_time_model)}
    GOLDEN_PATH.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
