"""Block packing under a gas limit and verification-time accounting.

Blocks are filled greedily from a stream of sampled transactions: packing
stops at the first transaction that would exceed the remaining gas (that
transaction is discarded).  Sequential verification costs the sum of the
transactions' CPU times; parallel verification schedules non-conflicting
transactions across p processors (longest first, earliest-free processor)
and runs conflicting ones sequentially afterwards.

``TxStream`` packs a refill's blocks together, when its caller takes the
first of them: each block end is one ``bisect_right`` over a memoryview of
the cumulative gas, the stream's one prefix sum, bounded to the rows a block
can hold.  The blocks' gas totals are read off that sum, and their other
totals are sums of each block's own rows, one ``np.add.reduceat`` per column
over the refill, so the per-block path does no array work.  A stream is made
with the processor count its caller prices at, and prices the blocks as soon
as they are packed: on one processor a block's time is its sequential time,
and on p > 1 one ``lpt_makespan`` call prices the whole refill.  A block is
a small dict of numbers: its totals, its first row and its time.

The stream draws into one set of buffers, allocated when it is made, and
refills them in place.  Prices are fixed at pack time, so a block's totals
and time stay valid for good; only its rows, read from the stream's
columns through ``start``, are valid until its caller takes the next block,
since taking it may refill the buffers.
"""

from bisect import bisect_right

import numpy as np

from verisim import kernels
from verisim.fields import require_finite, require_integer
from verisim.workload import (
    MIN_TX_GAS,
    FittedWorkload,
    check_block_limit,
    empty_columns,
    sample_transaction_arrays,
)

# transactions drawn per refill, unless a block limit needs more
CHUNK_TXS = 1 << 16


def _parallel_time(cols: dict, starts: np.ndarray, ends: np.ndarray, serial, p: int) -> list:
    """Parallel verification times on p processors of the blocks packed
    together, in order: block i is rows ``[starts[i], ends[i])`` of ``cols``.

    The non-conflicting CPU times go into a zero-padded matrix, one row per
    block, that one ``lpt_makespan`` call schedules; each block's
    conflicting total in ``serial`` (``None`` when c = 0) then runs after
    its makespan.
    """
    lo, hi = starts[0], ends[-1]
    free = np.where(cols["conflicting"][lo:hi], 0.0, cols["cpu_time"][lo:hi])
    # one transaction, the first that overflowed, lies between two blocks
    free = np.delete(free, ends[:-1] - lo)
    counts = ends - starts
    jobs = np.zeros((counts.size, counts.max()))
    jobs[np.arange(jobs.shape[1]) < counts[:, None]] = free
    makespans = kernels.lpt_makespan(jobs, p)
    if serial is not None:
        makespans += serial
    return makespans.tolist()


class TxStream:
    """Chunked transaction sampler feeding greedy block packing.

    Equivalent to sampling transactions freshly per block (the stream is iid),
    but amortises the draws; the cumulative gas makes per-block packing a
    single binary search.  Each fill has fresh per-column streams spawned from
    ``rng`` (see ``sample_transaction_arrays``), in the order of the fills.
    So ``rng`` must be a ``Generator`` with a ``SeedSequence``, as
    ``np.random.default_rng`` makes; anything else is rejected before the
    stream allocates.

    A refill happens exactly when fewer than ``max_block_txs`` rows remain
    unread, and the unread tail is kept in front of the fresh rows.  Only
    the integer used-gas prefix sum spans a refill, and it is exact; a
    block's ``total_fee``, ``seq_time`` and conflicting total are sums of its
    own rows, so their bits depend on those rows alone, not on the refill
    point.

    The stream allocates all its buffers once, in ``__init__``: one column
    set of ``max_block_txs + chunk`` rows and the used-gas prefix sum.  A
    refill copies the unread tail to the front of the set and draws the
    fresh chunk straight behind it; the copy never overlaps, since the tail
    is shorter than ``max_block_txs`` and starts past ``chunk -
    max_block_txs >= 3 * max_block_txs``.  So a refill allocates no column,
    and a block's rows, from ``start`` on in the columns, are valid only
    until its caller takes the next block.

    When no block is waiting, the stream refills and packs every block that
    starts at least ``max_block_txs`` rows before the end of the drawn rows,
    so that it fits in them, and prices these blocks at once on
    ``processors``, which fixes every block's ``time``: on one processor it
    is ``seq_time`` itself, and on more one ``_parallel_time`` call prices
    the refill's blocks.  Each makespan keeps the bits of its block alone.
    """

    def __init__(
        self,
        workload: FittedWorkload,
        conflict_rate: float,
        rng: np.random.Generator,
        block_limit: int,
        processors: int = 1,
    ):
        if not isinstance(workload, FittedWorkload):
            raise ValueError(f"workload must be a FittedWorkload, got {type(workload).__name__}")
        self._p = require_integer("processors", processors)
        require_finite("conflict_rate", conflict_rate, 0, 1)
        self._wl = workload
        self._c = conflict_rate
        if not (isinstance(rng, np.random.Generator)
                and isinstance(rng.bit_generator.seed_seq, np.random.SeedSequence)):
            raise ValueError("rng must be a numpy Generator with a SeedSequence to spawn, "
                             f"as np.random.default_rng(seed) makes, got {type(rng).__name__}")
        self._rng = rng
        self._limit = check_block_limit(block_limit)
        # packing can never consume more transactions than this per block
        self._max_block_txs = self._limit // MIN_TX_GAS + 2
        self._chunk = max(CHUNK_TXS, 4 * self._max_block_txs)
        size = self._max_block_txs + self._chunk
        self._cols = empty_columns(size)
        # rows [a, b) hold used gas gas_c[b] - gas_c[a]
        self._gas_c = np.zeros(size + 1, dtype=np.int64)
        # the block search reads Python ints off it
        self._gas_view = memoryview(self._gas_c)
        self._n = 0  # rows drawn into the columns
        self._cursor = 0
        self._packed = []  # packed blocks not yet handed out, last one first

    def _refill(self):
        cols, cursor = self._cols, self._cursor
        tail = self._n - cursor
        for col in cols.values():
            col[:tail] = col[cursor : self._n]
        n = self._n = tail + self._chunk
        fresh = {k: col[tail:n] for k, col in cols.items()}
        sample_transaction_arrays(self._wl, self._chunk, self._c, self._rng, self._limit, out=fresh)
        self._cursor = 0
        np.cumsum(cols["used_gas"][:n], out=self._gas_c[1 : n + 1])

    def _pack(self):
        # the last pack left fewer than max_block_txs rows unread
        self._refill()
        gas_view = self._gas_view
        width = self._max_block_txs
        # the last cursor from which a block can be packed before a refill
        last = self._n - width
        limit = self._limit
        cursor = self._cursor
        starts, ends = [], []
        while cursor <= last:
            # a block holds fewer than width transactions, so its end lies
            # inside [cursor, cursor + width), all of it summed
            end = bisect_right(gas_view, gas_view[cursor] + limit, cursor, cursor + width) - 1
            starts.append(cursor)
            ends.append(end)
            # skip the first overflowing transaction: packing stops there
            cursor = end + 1
        self._cursor = cursor
        s, e = np.asarray(starts), np.asarray(ends)
        gas = (self._gas_c.take(e) - self._gas_c.take(s)).tolist()
        # every block holds a row, since used gas is clipped to the limit, so
        # the bounds rise: block i sums at place 2i, and the overflowing row
        # after it at 2i + 1
        lo, hi = starts[0], ends[-1]
        bounds = np.stack((s, e), axis=1).ravel()[:-1] - lo
        cols = self._cols
        cpu = cols["cpu_time"][lo:hi]
        fee = np.add.reduceat(cols["used_gas"][lo:hi] * cols["gas_price"][lo:hi], bounds)[::2].tolist()
        seq = np.add.reduceat(cpu, bounds)[::2].tolist()
        if self._p == 1:
            times = seq
        else:
            serial = np.add.reduceat(cpu * cols["conflicting"][lo:hi], bounds)[::2] if self._c > 0 else None
            times = _parallel_time(cols, s, e, serial, self._p)
        self._packed = [
            {
                "tx_count": b - a,
                "gas_used_total": g,
                "total_fee": f,
                "seq_time": q,
                "start": a,
                "time": t,
            }
            for a, b, g, f, q, t in zip(starts, ends, gas, fee, seq, times)
        ][::-1]

    def next_block_txs(self) -> dict:
        """The next greedily packed block.

        Keys: ``tx_count``, ``gas_used_total``, ``total_fee``, ``seq_time``,
        the block's first row ``start`` and ``time``, its verification
        seconds on the stream's ``processors``.  Its rows,
        from ``start`` on in the stream's columns, are valid until the
        caller takes the next block; everything else stays valid.
        """
        if not self._packed:
            self._pack()
        return self._packed.pop()


def measure_verification_times(
    workload: FittedWorkload,
    block_limit: int,
    n_blocks: int,
    seed: int = 0,
    p: int = 1,
    conflict_rate: float = 0.0,
    seq_out: np.ndarray | None = None,
) -> np.ndarray:
    """Verification times on p processors of n freshly built blocks (the per-limit statistics source).

    ``seq_out``, a float64 array of n_blocks entries if given, receives the
    same blocks' one-processor times from the same pass.  Every argument is
    checked before a block is packed.
    """
    require_integer("n_blocks", n_blocks)
    require_integer("seed", seed, 0)
    if seq_out is not None and not (
        isinstance(seq_out, np.ndarray) and seq_out.dtype == np.float64 and seq_out.shape == (n_blocks,)
    ):
        raise ValueError(f"seq_out must be a float64 array of n_blocks={n_blocks} entries, "
                         f"got {getattr(seq_out, 'dtype', type(seq_out).__name__)} of shape {np.shape(seq_out)}")
    stream = TxStream(workload, conflict_rate, np.random.default_rng(seed), block_limit, p)
    times = np.empty(n_blocks, dtype=np.float64)
    for i in range(n_blocks):
        block = stream.next_block_txs()
        times[i] = block["time"]
        if seq_out is not None:
            seq_out[i] = block["seq_time"]
    return times


def summary_stats(values: np.ndarray) -> dict:
    values = np.asarray(values, dtype=np.float64)
    return {
        "mean": float(values.mean()),
        "min": float(values.min()),
        "max": float(values.max()),
        "median": float(np.median(values)),
        "sd": float(values.std(ddof=1)) if values.size > 1 else 0.0,
    }
