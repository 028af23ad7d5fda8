"""The two hot kernels: LPT makespan and the weighted best-split scan.

Callers reach them through the module attribute (``kernels.best_split``),
so a tracer that replaces the attribute sees every call.  ``lpt_makespan``
schedules a batch of blocks in one call: while many blocks still have jobs,
one vectorised step gives each of them its next job.

``best_split`` scans one tree node over its rows of positive bootstrap
weight only; a zero-weight row never reaches it, so both sides of every
split carry weight.  The forest hands it the node's cumulative sums from its
forest-wide buffers (a left child's are its parent's prefix; a right child's
weights are an exact integer difference, its weighted y a fresh sum) and the
flags where x rises, read off the forest's ``next_up`` index.
"""

import heapq

import numpy as np

# Kept for the perfbench host fingerprint, which records the backend name and
# checks it is "native" or "fallback"; this NumPy/Python code is the only one.
BACKEND = "fallback"

# one vectorised LPT step over a batch costs about as much as this many heap
# steps, one per row (measured on 8M-128M blocks of the seed-7 model), so
# once no more rows than this still have jobs, they finish on heaps
FEW_ROWS = 16


def lpt_makespan(times: np.ndarray, p: int) -> float | np.ndarray:
    """Makespan of greedy longest-processing-time-first scheduling on p processors.

    Jobs (nonnegative durations) are sorted by decreasing duration and each
    is assigned to the processor that is free earliest.  Which of several
    equally loaded processors takes a job cannot change the result: adding
    the job to any of them leaves the same multiset of loads, so every later
    float addition and the final maximum are the same.  So neither the
    order of the processors nor how the least-loaded one is found matters,
    and the result never depends on the order of the jobs; on one processor
    it is their sum taken longest first.

    A 2-D ``times`` is a batch: each row is one schedule, zero-padded on the
    right, and the result is an array of one makespan per row.  A job of
    zero duration adds 0.0 to a load, which leaves it as it was, so padding
    never changes a row's bits.  A 1-D ``times`` is a batch of one and gives
    a float.

    Step j gives the j-th longest job of every row that still has one to
    that row's least-loaded processor (an argmin over the rows' loads).
    Rows are ordered by decreasing job count, so the rows still running are
    a prefix.  Once ``FEW_ROWS`` or fewer remain, each finishes on a heap of
    its loads.
    """
    if p < 1:
        raise ValueError("processor count must be >= 1")
    times = np.asarray(times, dtype=np.float64)
    if times.ndim == 1:
        return float(lpt_makespan(times[None, :], p)[0])
    rows, n = times.shape
    out = np.zeros(rows)
    if n == 0:
        return out
    counts = np.count_nonzero(times, axis=1)
    order = np.argsort(-counts, kind="stable")
    counts = counts[order]
    # each row ascending: its j-th longest job is in column n - 1 - j
    jobs = times[order]
    jobs.sort(axis=1)
    if p >= n:
        out[order] = jobs[:, -1]
        return out
    # the p longest jobs open the p empty processors (0.0 + t == t)
    loads = jobs[:, n - p :].copy()
    flat = loads.ravel()
    first = np.arange(0, rows * p, p)
    step = p
    for m in np.searchsorted(-counts, -np.arange(p, counts[0]), side="left").tolist():
        if m <= FEW_ROWS:
            break
        flat[first[:m] + loads[:m].argmin(axis=1)] += jobs[:m, n - 1 - step]
        step += 1
    # an ascending list is a heap
    for r in range(int(np.count_nonzero(counts > step))):
        heap = sorted(loads[r].tolist())
        for t in jobs[r, n - counts[r] : n - step][::-1].tolist():
            heapq.heapreplace(heap, heap[0] + t)
        loads[r] = heap
    out[order] = loads.max(axis=1)
    return out


def best_split(cw: np.ndarray, cs: np.ndarray, distinct: np.ndarray):
    """Best variance-reduction split of a segment of positive-weight rows in x order.

    ``cw`` and ``cs`` are the segment's cumulative weights and weighted y,
    summed from its first row; ``distinct[i]`` says that row i + 1's x is
    larger than row i's.  Returns ``(k, gain)`` where the split puts rows
    [0, k) left and [k, m) right, or ``(-1, 0.0)`` when no split with
    positive gain between distinct x exists.  Every row carries weight, so
    both sides of every split do.  Ties pick the smallest k.
    """
    m = cw.size
    if m < 2:
        return -1, 0.0
    w_tot = cw[-1]
    s_tot = cs[-1]
    w_left = cw[:-1]
    s_left = cs[:-1]
    gains = s_left**2 / w_left + (s_tot - s_left) ** 2 / (w_tot - w_left) - s_tot**2 / w_tot
    gains[~distinct] = -np.inf
    j = int(np.argmax(gains))
    gain = float(gains[j])
    if gain <= 0.0:
        return -1, 0.0
    return j + 1, gain
