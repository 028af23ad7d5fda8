"""The committed Student-t table behind the summary's 95 % intervals.

``verisim/data/student_t_975.npy`` holds ``scipy.special.stdtrit(df, 0.975)``
for every df from 1 to ``MAX_RUNS - 1``, so that ``ci_halfwidth`` needs no
scipy at run time.  These tests pin the table to the bits of scipy 1.17.1,
the version it was generated with; another scipy may differ in the last bit
and fail them, and then regenerating the table is a deliberate change to
the summary's bytes.  Regenerate it with::

    PYTHONPATH=src python -m tests.test_student_t_table
"""

import pathlib

import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtrit

from verisim.config import MAX_RUNS
from verisim.scenario import CI_LEVEL, T_TABLE, ci_halfwidth, student_t_table

TABLE_PATH = pathlib.Path(__file__).resolve().parent.parent / "src" / "verisim" / "data" / T_TABLE
Q = 0.5 + CI_LEVEL / 2.0


def _table() -> np.ndarray:
    # one vectorised call: it gives the same bits as one scalar call per df
    return stdtrit(np.arange(1, MAX_RUNS, dtype=np.float64), Q)


def test_table_has_one_entry_per_df():
    assert student_t_table().shape == (MAX_RUNS - 1,)
    assert student_t_table().dtype == np.float64


def test_every_entry_is_stdtrit_bit_for_bit():
    table = student_t_table()
    assert np.array_equal(table.view(np.int64), _table().view(np.int64))
    # ci_halfwidth once made one scalar call per cell
    scalar = np.array([float(stdtrit(df, Q)) for df in range(1, MAX_RUNS)])
    assert np.array_equal(table.view(np.int64), scalar.view(np.int64))


def test_sample_matches_scipy_stats():
    table = student_t_table()
    for df in (1, 2, 3, 15, 39, 999, 12_345, MAX_RUNS - 1):
        assert table[df - 1] == float(stats.t.ppf(Q, df)), df


def test_ci_halfwidth_takes_up_to_max_runs_values():
    values = np.random.default_rng(8).normal(size=MAX_RUNS)
    expected = float(stats.t.ppf(Q, MAX_RUNS - 1)) * float(values.std(ddof=1)) / np.sqrt(MAX_RUNS)
    assert ci_halfwidth(values) == expected
    with pytest.raises(ValueError, match=f"MAX_RUNS={MAX_RUNS}"):
        ci_halfwidth(np.zeros(MAX_RUNS + 1))


def record():
    TABLE_PATH.parent.mkdir(exist_ok=True)
    np.save(TABLE_PATH, _table())


if __name__ == "__main__":
    record()
