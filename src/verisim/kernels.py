"""The two hot kernels: LPT makespan and the weighted best-split scan.

Callers reach them through the module attribute (``kernels.best_split``),
so a tracer that replaces the attribute sees every call.
"""

import heapq

import numpy as np

# Kept for the perfbench host fingerprint, which records the backend name and
# checks it is "native" or "fallback"; this NumPy/Python code is the only one.
BACKEND = "fallback"


def lpt_makespan(times: np.ndarray, p: int) -> float:
    """Makespan of greedy longest-processing-time-first scheduling on p processors.

    Jobs are sorted by decreasing duration and each is assigned to the
    processor that is free earliest (lowest load, lowest index on ties).
    """
    if p < 1:
        raise ValueError("processor count must be >= 1")
    times = np.asarray(times, dtype=np.float64)
    n = times.size
    if n == 0:
        return 0.0
    if p == 1:
        return float(times.sum())
    order = np.sort(times)[::-1]
    if p >= n:
        return float(order[0])
    # (load, processor index) heap; ties resolve to the lowest index
    loads = [(0.0, i) for i in range(p)]
    heapq.heapify(loads)
    for t in order:
        load, i = heapq.heappop(loads)
        heapq.heappush(loads, (load + float(t), i))
    return max(load for load, _ in loads)


def best_split(x: np.ndarray, y: np.ndarray, w: np.ndarray, lo: int, hi: int):
    """Best variance-reduction split of the segment [lo, hi) of x-sorted data.

    Returns ``(pos, gain)`` where the split puts indices [lo, pos) left and
    [pos, hi) right, or ``(-1, 0.0)`` when no split with positive gain and a
    distinct x boundary exists.  Weights are bootstrap multiplicities; both
    sides of a valid split must carry positive weight.  Ties pick the
    smallest position.
    """
    m = hi - lo
    if m < 2:
        return -1, 0.0
    xs = x[lo:hi]
    ys = y[lo:hi]
    ws = w[lo:hi]
    wy = ws * ys
    cw = np.cumsum(ws)
    cs = np.cumsum(wy)
    w_tot = cw[-1]
    s_tot = cs[-1]
    if w_tot <= 0.0:
        return -1, 0.0
    w_left = cw[:-1]
    s_left = cs[:-1]
    w_right = w_tot - w_left
    s_right = s_tot - s_left
    valid = (xs[1:] > xs[:-1]) & (w_left > 0.0) & (w_right > 0.0)
    if not np.any(valid):
        return -1, 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = s_left**2 / w_left + s_right**2 / w_right - s_tot**2 / w_tot
    gains = np.where(valid, gains, -np.inf)
    j = int(np.argmax(gains))
    gain = float(gains[j])
    if gain <= 0.0:
        return -1, 0.0
    return lo + j + 1, gain
