import numpy as np
import pytest

from verisim import kernels


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
