import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verisim import kernels

# A few durations, 0.0 among them, so equal loads and so ties are common.
# Sums of the binary fractions are exact in any order; the others round, so
# a sum taken in another order shows in the bits.
DURATIONS = [0.0, 0.125, 0.5, 1.0, 2.75, 0.1, 0.3, 0.7, 1.3]


def lpt_oracle(times, p):
    """LPT by its definition: longest job first, each to the least-loaded processor (lowest index on ties)."""
    loads = [0.0] * p
    for t in sorted(times, reverse=True):
        i = min(range(p), key=loads.__getitem__)
        loads[i] += t
    return max(loads)


@st.composite
def jobs_and_processors(draw):
    n = draw(st.integers(0, 150))
    p = draw(st.one_of(st.integers(1, 24), st.sampled_from([1, max(n, 1), n + 1])))
    return draw(st.lists(st.sampled_from(DURATIONS), min_size=n, max_size=n)), p


def padded(rows, width):
    """The job lists as one batch: a matrix with a row per list, zero-padded to ``width``."""
    batch = np.zeros((len(rows), width))
    for out, row in zip(batch, rows):
        out[: len(row)] = row
    return batch


class TestLptMakespanBits:
    # a batch this small runs only vectorised steps at FEW_ROWS = 0, both
    # kinds of step at 2 and only heaps at the default
    @settings(max_examples=600, deadline=None)
    @given(
        jobs_and_processors(),
        st.lists(st.lists(st.sampled_from(DURATIONS), max_size=150), max_size=5),
        st.integers(0, 3),
        st.sampled_from([0, 2, kernels.FEW_ROWS]),
    )
    def test_matches_the_definition(self, case, others, pad, few_rows):
        times, p = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "FEW_ROWS", few_rows)
            assert kernels.lpt_makespan(np.asarray(times, dtype=np.float64), p) == lpt_oracle(times, p)
            # the same jobs as one row of a zero-padded batch, among rows of other lengths
            rows = [*others[:2], times, *others[2:]]
            makespans = kernels.lpt_makespan(padded(rows, max(map(len, rows)) + pad), p)
        assert [m.hex() for m in makespans.tolist()] == [lpt_oracle(row, p).hex() for row in rows]

    @settings(max_examples=300, deadline=None)
    @given(jobs_and_processors(), st.randoms(use_true_random=False))
    def test_input_order_never_changes_the_bits(self, case, rnd):
        times, p = case
        shuffled = list(times)
        rnd.shuffle(shuffled)
        makespan = kernels.lpt_makespan(np.asarray(times, dtype=np.float64), p)
        assert kernels.lpt_makespan(np.asarray(shuffled, dtype=np.float64), p).hex() == makespan.hex()


def segment(x, y, w, lo=0, hi=None):
    """``best_split``'s arguments for rows [lo, hi): the sums from row lo and the distinct-x flags."""
    x, y, w = (np.asarray(a, dtype=np.float64)[lo:hi] for a in (x, y, w))
    return np.cumsum(w), np.cumsum(w * y), x[1:] > x[:-1]


class TestBestSplitSemantics:
    def test_no_split_on_constant_x(self):
        x = np.full(10, 3.0)
        y = np.arange(10.0)
        w = np.ones(10)
        assert kernels.best_split(*segment(x, y, w)) == (-1, 0.0)

    def test_no_split_on_constant_y(self):
        x = np.arange(10.0)
        y = np.full(10, 2.0)
        w = np.ones(10)
        pos, gain = kernels.best_split(*segment(x, y, w))
        assert pos == -1

    def test_obvious_split_found(self):
        x = np.arange(10.0)
        y = np.asarray([0.0] * 5 + [10.0] * 5)
        w = np.ones(10)
        pos, gain = kernels.best_split(*segment(x, y, w))
        assert pos == 5
        assert gain == pytest.approx(np.sum((y - y.mean()) ** 2), rel=1e-12)

    def test_single_element_segment(self):
        x = np.arange(5.0)
        y = x.copy()
        w = np.ones(5)
        assert kernels.best_split(*segment(x, y, w, 2, 3)) == (-1, 0.0)

    def test_respects_segment_bounds(self):
        x = np.arange(10.0)
        y = np.asarray([9.0] * 3 + [0.0, 0.0, 0.0, 0.0] + [9.0] * 3)
        w = np.ones(10)
        pos, _ = kernels.best_split(*segment(x, y, w, 3, 7))
        assert pos == -1  # constant inside the segment
