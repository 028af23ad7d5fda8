"""Block packing under a gas limit and verification-time accounting.

Blocks are filled greedily from a stream of sampled transactions: packing
stops at the first transaction that would exceed the remaining gas (that
transaction is discarded).  Sequential verification costs the sum of the
transactions' CPU times; parallel verification schedules non-conflicting
transactions across p processors (longest first, earliest-free processor)
and runs conflicting ones sequentially afterwards.
"""

import numpy as np

from verisim import kernels
from verisim.workload import MIN_TX_GAS, FittedWorkload, check_block_limit, sample_transaction_arrays

# transactions drawn per refill, unless a block limit needs more
CHUNK_TXS = 1 << 16


def _parallel_time(cpu: np.ndarray, conflicting: np.ndarray, p: int) -> float:
    makespan = kernels.lpt_makespan(cpu[~conflicting], p)
    return float(makespan + cpu[conflicting].sum())


def verification_seconds(packed: dict, p: int) -> float:
    """CPU seconds a verifier with p processors spends re-executing a packed block.

    ``packed`` is a block from ``TxStream.next_block_txs``.  One processor
    runs the transactions back to back, so p = 1 is exactly the sequential
    time.
    """
    if p == 1:
        return packed["seq_time"]
    return _parallel_time(packed["slice"]["cpu_time"], packed["slice"]["conflicting"], p)


class TxStream:
    """Chunked transaction sampler feeding greedy block packing.

    Equivalent to sampling transactions freshly per block (the stream is iid),
    but amortises the draws; cumulative sums make per-block packing a single
    binary search.  Each refill spawns fresh per-column streams from ``rng``
    (see ``sample_transaction_arrays``), so ``rng`` must carry a
    ``SeedSequence``.
    """

    def __init__(
        self,
        workload: FittedWorkload,
        conflict_rate: float,
        rng: np.random.Generator,
        block_limit: int,
    ):
        self._wl = workload
        self._c = conflict_rate
        self._rng = rng
        self._limit = check_block_limit(block_limit)
        # packing can never consume more transactions than this per block
        self._max_block_txs = self._limit // MIN_TX_GAS + 2
        self._chunk = max(CHUNK_TXS, 4 * self._max_block_txs)
        self._cols = None
        self._cursor = 0

    def _refill(self):
        fresh = sample_transaction_arrays(self._wl, self._chunk, self._c, self._rng, self._limit)
        if self._cols is not None and self._cursor < self._cols["used_gas"].size:
            cols = {k: np.concatenate([self._cols[k][self._cursor :], fresh[k]]) for k in fresh}
        else:
            cols = fresh
        self._cursor = 0
        self._cols = cols
        self._gas_csum = np.cumsum(cols["used_gas"])
        self._fee_csum = np.cumsum(cols["used_gas"] * cols["gas_price"])
        self._cpu_csum = np.cumsum(cols["cpu_time"])

    def next_block_txs(self):
        """Columns of the next greedily packed block (may be empty)."""
        if self._cols is None or self._cols["used_gas"].size - self._cursor < self._max_block_txs:
            self._refill()
        base = self._gas_csum[self._cursor - 1] if self._cursor > 0 else 0
        end = int(np.searchsorted(self._gas_csum, base + self._limit, side="right"))
        start = self._cursor
        # skip the first overflowing transaction: packing stops there
        self._cursor = end + 1
        gas = int((self._gas_csum[end - 1] - base) if end > start else 0)
        fee_base = self._fee_csum[start - 1] if start > 0 else 0.0
        cpu_base = self._cpu_csum[start - 1] if start > 0 else 0.0
        return {
            "slice": {k: v[start:end] for k, v in self._cols.items()},
            "tx_count": end - start,
            "gas_used_total": gas,
            "total_fee": float(self._fee_csum[end - 1] - fee_base) if end > start else 0.0,
            "seq_time": float(self._cpu_csum[end - 1] - cpu_base) if end > start else 0.0,
        }


def measure_verification_times(
    workload: FittedWorkload,
    block_limit: int,
    n_blocks: int,
    seed: int = 0,
    p: int = 1,
    conflict_rate: float = 0.0,
) -> np.ndarray:
    """Verification times on p processors of n freshly built blocks (the per-limit statistics source)."""
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks!r}")
    stream = TxStream(workload, conflict_rate, np.random.default_rng(seed), block_limit)
    return np.asarray([verification_seconds(stream.next_block_txs(), p) for _ in range(n_blocks)], dtype=np.float64)


def summary_stats(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "median": float(np.median(values)),
        "sd": float(values.std(ddof=1)) if values.size > 1 else 0.0,
    }
