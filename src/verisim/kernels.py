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

    Jobs (nonnegative durations) are sorted by decreasing duration and each
    is assigned to the processor that is free earliest.  Which of several
    equally loaded processors takes a job cannot change the result: adding
    the job to any of them leaves the same multiset of loads, so every later
    float addition and the final maximum are the same.  The heap therefore
    holds bare loads, with no processor index to break ties.  The result
    never depends on the order of the jobs; on one processor it is their
    sum taken longest first.
    """
    if p < 1:
        raise ValueError("processor count must be >= 1")
    times = np.asarray(times, dtype=np.float64)
    n = times.size
    if n == 0:
        return 0.0
    order = np.sort(times)[::-1].tolist()
    if p >= n:
        return order[0]
    # the p longest jobs open the p empty processors (0.0 + t == t);
    # in ascending order they already form a heap
    loads = order[p - 1::-1]
    for t in order[p:]:
        heapq.heapreplace(loads, loads[0] + t)
    return max(loads)


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
