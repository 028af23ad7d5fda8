import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import verisim._fallback as fallback
from verisim import kernels

try:
    from verisim import _native as native
except ImportError:
    native = None


@pytest.mark.skipif(native is None, reason="compiled extension not built")
class TestBackendAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-9, 100.0), min_size=0, max_size=200), st.integers(1, 32))
    def test_lpt_makespan_identical(self, times, p):
        arr = np.asarray(times, dtype=np.float64)
        assert native.lpt_makespan(arr, p) == fallback.lpt_makespan(arr, p)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 400))
    def test_best_split_identical(self, seed, n):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.choice(np.linspace(0, 1, n // 2 + 1), size=n))  # force ties
        y = np.sin(x * 7) + rng.normal(0, 0.2, n)
        w = rng.multinomial(n, np.full(n, 1.0 / n)).astype(np.float64)
        lo = int(rng.integers(0, n))
        hi = int(rng.integers(lo, n)) + 1
        pos_n, gain_n = native.best_split(x, y, w, lo, hi)
        pos_f, gain_f = fallback.best_split(x, y, w, lo, hi)
        assert pos_n == pos_f
        assert gain_n == pytest.approx(gain_f, rel=1e-9, abs=1e-12)

    def test_selected_backend_is_native(self):
        assert kernels.BACKEND == "native"


class TestBestSplitSemantics:
    def test_no_split_on_constant_x(self):
        x = np.full(10, 3.0)
        y = np.arange(10.0)
        w = np.ones(10)
        assert kernels.best_split(x, y, w, 0, 10) == (-1, 0.0)

    def test_no_split_on_constant_y(self):
        x = np.arange(10.0)
        y = np.full(10, 2.0)
        w = np.ones(10)
        pos, gain = kernels.best_split(x, y, w, 0, 10)
        assert pos == -1

    def test_obvious_split_found(self):
        x = np.arange(10.0)
        y = np.asarray([0.0] * 5 + [10.0] * 5)
        w = np.ones(10)
        pos, gain = kernels.best_split(x, y, w, 0, 10)
        assert pos == 5
        assert gain == pytest.approx(np.sum((y - y.mean()) ** 2), rel=1e-12)

    def test_zero_weight_sides_excluded(self):
        x = np.arange(6.0)
        y = np.asarray([5.0, 0.0, 0.0, 0.0, 0.0, 9.0])
        w = np.asarray([0.0, 1.0, 1.0, 1.0, 1.0, 0.0])
        pos, gain = kernels.best_split(x, y, w, 0, 6)
        # splits that isolate only zero-weight points carry no gain
        assert pos == -1 or 1 <= pos <= 5

    def test_single_element_segment(self):
        x = np.arange(5.0)
        y = x.copy()
        w = np.ones(5)
        assert kernels.best_split(x, y, w, 2, 3) == (-1, 0.0)

    def test_respects_segment_bounds(self):
        x = np.arange(10.0)
        y = np.asarray([9.0] * 3 + [0.0, 0.0, 0.0, 0.0] + [9.0] * 3)
        w = np.ones(10)
        pos, _ = kernels.best_split(x, y, w, 3, 7)
        assert pos == -1  # constant inside the segment
