"""Block packing under a gas limit and verification-time accounting.

Blocks are filled greedily from a stream of sampled transactions: packing
stops at the first transaction that would exceed the remaining gas (that
transaction is discarded).  Sequential verification costs the sum of the
transactions' CPU times; parallel verification schedules non-conflicting
transactions across p processors (longest first, earliest-free processor)
and runs conflicting ones sequentially afterwards.

``TxStream`` packs on demand, a few blocks ahead of its caller, in batches:
each block end is one binary search over cumulative gas, and a batch's
totals are read off the cumulative sums in a few vectorised gathers, so the
per-block path does no array work.  A stream is made with the processor
count its caller prices at, and prices each batch as soon as it is packed:
on one processor a block's time is its sequential time, and on p > 1 one
``lpt_makespan`` call prices the whole batch.  A block is a small dict of
numbers: its totals, its first row and its time.

The stream draws into one set of buffers, allocated when it is made, and
refills them in place.  Prices are fixed at pack time, so a block's totals
and time stay valid for good; only its rows, read from the stream's
columns through ``start``, are valid until its caller takes the next block,
since taking it may refill the buffers.
"""

import numpy as np

from verisim import kernels
from verisim.fields import require_finite, require_integer
from verisim.workload import MIN_TX_GAS, FittedWorkload, check_block_limit, empty_columns, sample_transaction_arrays

# transactions drawn per refill, unless a block limit needs more
CHUNK_TXS = 1 << 16


def _parallel_time(cols: dict, starts: np.ndarray, ends: np.ndarray, serial, p: int) -> list:
    """Parallel verification times on p processors of the blocks packed in
    one batch, in order: block i is rows ``[starts[i], ends[i])`` of ``cols``.

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


def _cumsum0(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Cumulative sums with a leading 0 into ``out`` (one longer than
    ``values``): rows [a, b) total ``c[b] - c[a]``.  ``values`` may be
    ``out[1:]`` itself, summed in place."""
    out[0] = 0
    np.cumsum(values, out=out[1:])
    return out


class TxStream:
    """Chunked transaction sampler feeding greedy block packing.

    Equivalent to sampling transactions freshly per block (the stream is iid),
    but amortises the draws; cumulative sums make per-block packing a single
    binary search.  Each refill spawns fresh per-column streams from ``rng``
    (see ``sample_transaction_arrays``), so ``rng`` must carry a
    ``SeedSequence``.

    A refill happens exactly when fewer than ``max_block_txs`` rows remain
    unread, and the unread tail is kept in front of the fresh rows.  The
    refill point fixes where each cumulative sum starts, so it fixes the bits
    of every ``total_fee`` and ``seq_time``: moving it, or summing the tail
    and the fresh rows apart, would change them.

    The stream allocates all its buffers once, in ``__init__``: one column
    set of ``max_block_txs + chunk`` rows and one buffer per cumulative sum
    (of gas, fees and CPU time, and, when c > 0 and p > 1, of the conflicting
    transactions' CPU time).  A refill copies the unread tail to the front
    of the set and draws the fresh chunk straight behind it; the copy never
    overlaps, since the tail is shorter than ``max_block_txs`` and starts
    past ``chunk - max_block_txs >= 3 * max_block_txs``.  Each product is
    summed in place in its cumulative sum's buffer.  So a refill allocates
    no column, and a block's rows, from ``start`` on in the columns, are
    valid only until its caller takes the next block.

    Blocks are packed on demand: when none is waiting, the stream packs
    ``max(1, blocks handed out since the refill)`` more, never past the next
    refill point.  The batches double, so a short stream packs at most about
    twice the blocks it hands out, and how many blocks a caller takes never
    changes the blocks it gets.  Each new batch is priced at once on
    ``processors``, which fixes every block's ``time``: on one processor it
    is ``seq_time`` itself, and on more one ``_parallel_time`` call prices
    the batch.  Each makespan keeps the bits of its block alone, so when a
    batch is priced never changes a time.
    """

    def __init__(
        self,
        workload: FittedWorkload,
        conflict_rate: float,
        rng: np.random.Generator,
        block_limit: int,
        processors: int = 1,
    ):
        self._p = require_integer("processors", processors)
        require_finite("conflict_rate", conflict_rate, 0, 1)
        self._wl = workload
        self._c = conflict_rate
        self._rng = rng
        self._limit = check_block_limit(block_limit)
        # packing can never consume more transactions than this per block
        self._max_block_txs = self._limit // MIN_TX_GAS + 2
        self._chunk = max(CHUNK_TXS, 4 * self._max_block_txs)
        size = self._max_block_txs + self._chunk
        self._cols = empty_columns(size)
        self._sums = [np.empty(size + 1, dtype=np.int64), np.empty(size + 1), np.empty(size + 1)]
        # only a parallel price reads the conflicting transactions' total
        self._serial_sum = np.empty(size + 1) if conflict_rate > 0 and self._p > 1 else None
        self._n = 0  # rows drawn into the columns
        self._cursor = 0
        self._handed = 0  # blocks handed out since the last refill
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
        self._handed = 0
        used, cpu = cols["used_gas"][:n], cols["cpu_time"][:n]
        gas_c, fee_c, cpu_c = (s[: n + 1] for s in self._sums)
        self._gas_c = _cumsum0(used, gas_c)
        fee = np.multiply(used, cols["gas_price"][:n], out=fee_c[1:])
        self._fee_c = _cumsum0(fee, fee_c)
        self._cpu_c = _cumsum0(cpu, cpu_c)
        self._serial_c = None
        if self._serial_sum is not None:
            serial_c = self._serial_sum[: n + 1]
            serial = np.multiply(cpu, cols["conflicting"][:n], out=serial_c[1:])
            self._serial_c = _cumsum0(serial, serial_c)

    def _pack(self):
        if self._n - self._cursor < self._max_block_txs:
            self._refill()
        gas_c = self._gas_c
        find = gas_c.searchsorted
        # the last cursor from which a block can be packed before a refill
        last = self._n - self._max_block_txs
        limit = self._limit
        cursor = self._cursor
        starts, ends = [], []
        for _ in range(max(1, self._handed)):
            end = int(find(gas_c[cursor] + limit, side="right")) - 1
            starts.append(cursor)
            ends.append(end)
            # skip the first overflowing transaction: packing stops there
            cursor = end + 1
            if cursor > last:
                break
        self._cursor = cursor
        self._handed += len(starts)
        s, e = np.asarray(starts), np.asarray(ends)
        gas = (gas_c.take(e) - gas_c.take(s)).tolist()
        fee = (self._fee_c.take(e) - self._fee_c.take(s)).tolist()
        seq = (self._cpu_c.take(e) - self._cpu_c.take(s)).tolist()
        if self._p == 1:
            times = seq
        else:
            serial = None if self._serial_c is None else self._serial_c.take(e) - self._serial_c.take(s)
            times = _parallel_time(self._cols, s, e, serial, self._p)
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
        """The next greedily packed block (may be empty).

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
