import math
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import mixture_workload, toy_workload
from tests.test_kernels import lpt_oracle
from verisim import blocks, kernels, workload
from verisim.blocks import CHUNK_TXS, TxStream, _parallel_time, measure_verification_times
from verisim.workload import MAX_BLOCK_LIMIT


def block_time(cpu_times, p, conflicting=None):
    """Verification seconds on p processors of a block of the given CPU
    times and conflict flags, priced as ``TxStream`` prices a refill that
    holds this block alone: p = 1 is the sum, p > 1 one ``_parallel_time``."""
    cpu = np.asarray(cpu_times, dtype=np.float64)
    if p == 1:
        return float(cpu.sum())
    conf = np.zeros(cpu.size, dtype=bool) if conflicting is None else np.asarray(conflicting, dtype=bool)
    cols = {"cpu_time": cpu, "conflicting": conf}
    [time] = _parallel_time(cols, np.asarray([0]), np.asarray([cpu.size]), cpu[conf].sum(keepdims=True), p)
    return time


def column(stream, packed, name):
    """One column's values over the block's rows, valid until the next block is taken."""
    start = packed["start"]
    return stream._cols[name][start : start + packed["tx_count"]]


def first_block(workload, block_limit, seed):
    """A fresh stream and the first block it hands out."""
    stream = TxStream(workload, 0.0, np.random.default_rng(seed), block_limit)
    return stream, stream.next_block_txs()


class FixedSeed(np.random.bit_generator.ISeedSequence):
    """A seed source that gives fixed words and cannot spawn."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.arange(1, n_words + 1, dtype=dtype)


class TestBuildBlock:
    def test_respects_gas_limit(self, toy_wl):
        for seed in range(5):
            _, packed = first_block(toy_wl, 8_000_000, seed)
            assert packed["gas_used_total"] <= 8_000_000
            assert packed["tx_count"] > 0

    def test_tiny_limit_packs_at_most_one(self, toy_wl):
        for seed in range(10):
            _, packed = first_block(toy_wl, 21_000, seed)
            assert packed["tx_count"] in (0, 1)
            assert packed["gas_used_total"] <= 21_000

    def test_deterministic(self, toy_wl):
        stream_a, a = first_block(toy_wl, 8_000_000, 7)
        stream_b, b = first_block(toy_wl, 8_000_000, 7)
        assert a["tx_count"] == b["tx_count"]
        assert a["total_fee"] == b["total_fee"]
        assert np.array_equal(column(stream_a, a, "used_gas"), column(stream_b, b, "used_gas"))

    def test_fee_is_gas_times_price(self, toy_wl):
        stream, packed = first_block(toy_wl, 8_000_000, 3)
        expected = float(np.sum(column(stream, packed, "used_gas") * column(stream, packed, "gas_price")))
        assert packed["total_fee"] == pytest.approx(expected, rel=1e-12)

    def test_limit_below_min_tx_gas(self, toy_wl):
        with pytest.raises(ValueError, match="^block_limit"):
            first_block(toy_wl, 20_000, 0)


class TestTxStreamPacking:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_packing_never_exceeds_limit(self, seed):
        from tests.helpers import toy_workload

        wl = toy_workload()
        stream = TxStream(wl, 0.3, np.random.default_rng(seed), 400_000)
        for _ in range(20):
            packed = stream.next_block_txs()
            assert packed["gas_used_total"] <= 400_000
            assert column(stream, packed, "used_gas").sum() == packed["gas_used_total"]
            assert column(stream, packed, "used_gas").size == packed["tx_count"]

    def test_first_overflow_stops_packing(self, toy_wl):
        stream = TxStream(toy_wl, 0.0, np.random.default_rng(0), 8_000_000)
        packed = stream.next_block_txs()
        nxt = stream.next_block_txs()
        # the discarded transaction would have pushed the first block past its limit
        assert packed["gas_used_total"] <= 8_000_000
        assert nxt["gas_used_total"] <= 8_000_000

    @pytest.mark.parametrize(
        "limit, p, n, ks", [(8_000_000, 4, 1_000, (1, 2, 3, 200, 470, 999)), (21_000, 1, 33_500, (1, 5, 33_000))]
    )
    def test_taking_fewer_blocks_never_changes_them(self, toy_wl, limit, p, n, ks):
        # packing runs a refill ahead of the caller; a stream cut short
        # must still hand out the same blocks, across a refill (about 465
        # blocks per refill at 8M and 32,800 at 21000)
        whole = measure_verification_times(toy_wl, limit, n, seed=5, p=p, conflict_rate=0.4)
        for k in ks:
            assert np.array_equal(measure_verification_times(toy_wl, limit, k, seed=5, p=p, conflict_rate=0.4), whole[:k])

    def test_priced_block_keeps_its_times_across_a_refill(self, toy_wl):
        # a refill overwrites the rows of the blocks before it, but not the
        # totals or the times priced for them (about 465 blocks per refill
        # at 8M; each refill's first block starts at row 0)
        stream = TxStream(toy_wl, 0.4, np.random.default_rng(2), 8_000_000, 4)
        taken = []
        while len(taken) < 2 or taken[-1][0]["start"] > 0:
            b = stream.next_block_txs()
            taken.append((b, b["seq_time"], b["time"]))
        # take a few more blocks of the new refill, as a caller does
        for _ in range(5):
            stream.next_block_txs()
        fresh = TxStream(toy_wl, 0.4, np.random.default_rng(2), 8_000_000, 4)
        for b, seq, time in taken:
            f = fresh.next_block_txs()
            assert b["seq_time"] == seq == f["seq_time"]
            assert b["time"] == time == f["time"]

    @pytest.mark.parametrize("limit, c, p, n", [(8_000_000, 0.4, 16, 1_500), (128_000_000, 0.0, 1, 100)])
    def test_refills_reuse_one_buffer_set(self, toy_wl, limit, c, p, n):
        # the stream's buffers are allocated once and refilled in place: one
        # column set, the cumulative gas and a refill's block dicts held
        # 2.34 MB at 8M and 2.37 MB at 128M when this test runs alone; a
        # second column set would add 1.65 and 1.79 MB, which puts both past
        # the bound
        # build the laws' and this limit's sampling tables first, which the
        # workload keeps, and the forest's merged step function
        workload.sample_transaction_arrays(toy_wl, 1, 0.0, np.random.default_rng(0), limit)
        tracemalloc.start()
        try:
            stream = TxStream(toy_wl, c, np.random.default_rng(0), limit, p)
            read = 0
            for _ in range(n):
                b = stream.next_block_txs()
                read += b["tx_count"] + 1  # and the overflowing transaction
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read > 3 * CHUNK_TXS  # so the first fill was followed by three refills
        assert held < 3.5e6

    def test_limit_above_max_rejected(self, toy_wl):
        # a larger limit would size refills past MAX_BLOCK_LIMIT / 21000 * 4 transactions
        TxStream(toy_wl, 0.0, np.random.default_rng(0), MAX_BLOCK_LIMIT)
        with pytest.raises(ValueError, match="^block_limit"):
            TxStream(toy_wl, 0.0, np.random.default_rng(0), MAX_BLOCK_LIMIT + 1)
        with pytest.raises(ValueError, match="^block_limit"):
            TxStream(toy_wl, 0.0, np.random.default_rng(0), 10**12)

    def test_processors_rejected_before_any_draw(self, toy_wl, monkeypatch):
        def sample(*args, **kwargs):
            raise AssertionError("transactions were drawn before the processor count was checked")

        monkeypatch.setattr("verisim.blocks.sample_transaction_arrays", sample)
        for processors in [0, -1, True, 2.0, "4", (4,)]:
            with pytest.raises(ValueError, match="^processors must be an integer >= 1"):
                TxStream(toy_wl, 0.4, np.random.default_rng(0), 8_000_000, processors)
        with pytest.raises(ValueError, match="^processors must be an integer >= 1, got 0"):
            measure_verification_times(toy_wl, 8_000_000, 10, p=0)

    @pytest.mark.parametrize("conflict_rate", [True, float("nan"), -0.1, 1.5])
    def test_conflict_rate_rejected_before_allocating(self, toy_wl, monkeypatch, conflict_rate):
        def allocate(*args, **kwargs):
            raise AssertionError("the stream allocated before the conflict rate was checked")

        monkeypatch.setattr("verisim.blocks.empty_columns", allocate)
        with pytest.raises(ValueError, match="^conflict_rate must"):
            TxStream(toy_wl, conflict_rate, np.random.default_rng(0), 8_000_000)

    @pytest.mark.parametrize("rng", [
        # no SeedSequence to spawn, whichever the bit generator
        np.random.Generator(np.random.PCG64(FixedSeed())),
        np.random.Generator(np.random.MT19937(FixedSeed())),
        np.random.Generator(np.random.Philox(FixedSeed())),
        np.random.RandomState(1),
        None,
    ], ids=["unspawnable", "mt19937", "philox", "randomstate", "none"])
    def test_rng_rejected_before_allocating(self, toy_wl, monkeypatch, rng):
        def allocate(*args, **kwargs):
            raise AssertionError("the stream allocated before rng was checked")

        monkeypatch.setattr("verisim.blocks.empty_columns", allocate)
        with pytest.raises(ValueError, match="^rng must be a numpy Generator with a SeedSequence"):
            TxStream(toy_wl, 0.0, rng, 8_000_000)

    @pytest.mark.parametrize("bits", [np.random.SFC64, np.random.MT19937, np.random.Philox],
                             ids=["sfc64", "mt19937", "philox"])
    def test_any_spawnable_generator_packs(self, toy_wl, bits):
        # a fill only spawns from rng, so any bit generator with a SeedSequence serves
        stream = TxStream(toy_wl, 0.4, np.random.Generator(bits(np.random.SeedSequence(3))), 8_000_000, 4)
        taken = [stream.next_block_txs() for _ in range(1_000)]  # across a refill
        assert all(0 < b["gas_used_total"] <= 8_000_000 for b in taken)
        assert sum(b["start"] == 0 for b in taken) == 3

    @pytest.mark.parametrize("make", [toy_workload, mixture_workload], ids=["toy", "mix"])
    @pytest.mark.parametrize("limit, p", [(8_000_000, 16), (128_000_000, 4)])
    def test_each_refill_is_priced_in_one_call(self, monkeypatch, make, limit, p):
        # a refill's blocks are packed and priced together: one pricing call
        # follows each draw, and it holds every block that starts at least
        # max_block_txs rows before the end of the drawn rows
        events = []
        sample, parallel_time = blocks.sample_transaction_arrays, blocks._parallel_time

        def drawn(*args, **kwargs):
            events.append("refill")
            return sample(*args, **kwargs)

        def priced(cols, starts, ends, serial, p):
            last = stream._n - stream._max_block_txs
            assert ends[-1] + 1 > last >= starts[-1]  # no further block fits
            events.append(starts.tolist())
            return parallel_time(cols, starts, ends, serial, p)

        monkeypatch.setattr(blocks, "sample_transaction_arrays", drawn)
        monkeypatch.setattr(blocks, "_parallel_time", priced)
        stream = TxStream(make(), 0.4, np.random.default_rng(8), limit, p)
        taken = []  # the starts of each refill's blocks, as handed out
        while events.count("refill") < 5:
            b = stream.next_block_txs()
            if b["start"] == 0:  # each refill's first block starts at row 0
                taken.append([])
            taken[-1].append(b["start"])
        assert events[::2] == ["refill"] * 5
        # the first four refills were taken whole, the fifth's first block alone
        assert events[1:8:2] == taken[:4]
        assert events[9][0] == taken[4][0] and len(taken) == 5


class TestOwnRowSums:
    # about 465 blocks per refill at 8M and 29 at 128M on the toy workload,
    # 4,000 and 420 on the mixture one
    @pytest.mark.parametrize("make, limit, n", [
        (toy_workload, 8_000_000, 1_000),
        (toy_workload, 128_000_000, 70),
        (mixture_workload, 8_000_000, 9_000),
        (mixture_workload, 128_000_000, 900),
    ], ids=["toy-8m", "toy-128m", "mix-8m", "mix-128m"])
    @pytest.mark.parametrize("p, c", [(1, 0.0), (4, 0.4)])
    def test_block_totals_are_sums_of_its_own_rows(self, monkeypatch, make, limit, n, p, c):
        # a block's fee, CPU and conflicting totals are those of its rows
        # alone, summed as one reduceat sums them, whatever the refill point;
        # and so within a few ulps of the exact sum
        serials = []
        parallel_time = blocks._parallel_time

        def recorded(cols, starts, ends, serial, p):
            serials.extend(serial.tolist())
            return parallel_time(cols, starts, ends, serial, p)

        monkeypatch.setattr(blocks, "_parallel_time", recorded)
        stream = TxStream(make(), c, np.random.default_rng(3), limit, p)
        refills = 0
        for i in range(n):
            b = stream.next_block_txs()
            refills += b["start"] == 0  # each refill's first block starts at row 0
            cpu, conf = column(stream, b, "cpu_time").copy(), column(stream, b, "conflicting").copy()
            fee = column(stream, b, "used_gas").copy() * column(stream, b, "gas_price").copy()
            assert b["seq_time"] == np.add.reduceat(cpu, [0])[0]
            assert b["total_fee"] == np.add.reduceat(fee, [0])[0]
            assert b["seq_time"] == pytest.approx(math.fsum(cpu), rel=1e-14, abs=0.0)
            assert b["total_fee"] == pytest.approx(math.fsum(fee), rel=1e-14, abs=0.0)
            if c > 0:
                assert serials[i] == np.add.reduceat(cpu * conf, [0])[0]
                assert serials[i] == pytest.approx(math.fsum(cpu[conf]), rel=1e-14, abs=0.0)
        assert refills >= 3  # the first fill and two refills


class TestStagedNormals:
    """No draw is staged ahead of a refill any more: each refill draws all
    its columns when the stream reaches it, and the blocks keep their bits."""

    @pytest.mark.parametrize("limit, n", [(8_000_000, 6_000), (128_000_000, 1_000)])
    def test_staged_draw_error_reaches_the_refill_that_consumes_it(self, monkeypatch, limit, n):
        # about 4,000 blocks per refill with the mixture at 8M and 420 at 128M
        wl = mixture_workload()
        want = measure_verification_times(wl, limit, n, seed=4, p=4, conflict_rate=0.4)
        real, calls = workload.sample_gmm_with, []

        def fail_after_the_first_fill(*args, **kwargs):
            calls.append(None)
            if len(calls) > 1:
                raise FloatingPointError("refill draw failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(workload, "sample_gmm_with", fail_after_the_first_fill)
        stream = TxStream(wl, 0.4, np.random.default_rng(4), limit, 4)
        got = []
        with pytest.raises(FloatingPointError, match="refill draw failed"):
            for _ in range(n):
                got.append(stream.next_block_txs()["time"])
        # the first fill's blocks all came out before the second fill raised
        assert 0 < len(got) < n
        assert got == want[: len(got)].tolist()
        monkeypatch.undo()
        assert np.array_equal(measure_verification_times(wl, limit, n, seed=4, p=4, conflict_rate=0.4), want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_continues_the_stream(self):
        wl, limit, n = mixture_workload(), 128_000_000, 1_000
        want = measure_verification_times(wl, limit, n, seed=6, p=4, conflict_rate=0.4)
        stream = TxStream(wl, 0.4, np.random.default_rng(6), limit, 4)
        first = stream.next_block_txs()["time"]
        pid = os.fork()
        if pid == 0:
            status = 2
            try:
                rest = [stream.next_block_txs()["time"] for _ in range(n - 1)]
                status = 0 if [first, *rest] == want.tolist() else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 20
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not take its blocks in 20 s")
        assert os.waitstatus_to_exitcode(done[1]) == 0
        # the parent's own stream goes on with the same bits
        assert [first] + [stream.next_block_txs()["time"] for _ in range(n - 1)] == want.tolist()


class TestVerificationTime:
    def test_empty_block_is_free(self):
        assert block_time([], 1) == 0.0
        assert block_time([], 4) == 0.0

    def test_sequential_is_sum(self):
        assert block_time([0.5, 0.25, 0.25], 1) == pytest.approx(1.0)

    def test_perfect_parallelism(self):
        assert block_time([1.0, 1.0, 1.0, 1.0], 1) == pytest.approx(4.0)
        assert block_time([1.0, 1.0, 1.0, 1.0], 4) == pytest.approx(1.0)

    def test_p1_parallel_equals_sequential_exactly(self, toy_wl):
        stream = TxStream(toy_wl, 0.4, np.random.default_rng(0), 2_000_000, 1)
        for _ in range(5):
            packed = stream.next_block_txs()
            assert packed["time"] == packed["seq_time"]

    @pytest.mark.parametrize("limit", [8_000_000, 128_000_000])
    def test_measured_p1_parallel_equals_sequential(self, toy_wl, limit):
        # the simulator charges a one-processor verifier the sequential time;
        # the per-limit statistics must agree with it bit for bit
        stream = TxStream(toy_wl, 0.0, np.random.default_rng(3), limit)
        seq = [stream.next_block_txs()["seq_time"] for _ in range(50)]
        assert np.array_equal(measure_verification_times(toy_wl, limit, 50, seed=3, p=1), seq)

    def test_seq_out_takes_the_sequential_times_from_the_same_pass(self, toy_wl):
        # 1,000 blocks at 8M cross two refills
        seq = np.empty(1_000)
        par = measure_verification_times(toy_wl, 8_000_000, 1_000, seed=5, p=16, conflict_rate=0.4, seq_out=seq)
        assert np.array_equal(par, measure_verification_times(toy_wl, 8_000_000, 1_000, seed=5, p=16, conflict_rate=0.4))
        assert np.array_equal(seq, measure_verification_times(toy_wl, 8_000_000, 1_000, seed=5, conflict_rate=0.4))

    @pytest.mark.parametrize("limit", [8_000_000, 128_000_000])
    def test_measure_keeps_a_plain_streams_bits(self, toy_wl, limit):
        # the measured times are those of a stream's first blocks, bit for bit
        seq = np.empty(400)
        times = measure_verification_times(toy_wl, limit, 400, seed=5, p=16, conflict_rate=0.4, seq_out=seq)
        stream = TxStream(toy_wl, 0.4, np.random.default_rng(5), limit, 16)
        plain = [stream.next_block_txs() for _ in range(400)]
        assert times.tolist() == [b["time"] for b in plain]
        assert seq.tolist() == [b["seq_time"] for b in plain]

    def test_conflicting_run_sequentially(self):
        # two conflicting seconds-long jobs serialize; the others split over p=2
        conflicting = [True, True, False, False]
        assert block_time([1.0, 1.0, 2.0, 2.0], 2, conflicting) == pytest.approx(2.0 + 2.0)

    def test_parallel_time_nonincreasing_in_p(self):
        rng = np.random.default_rng(4)
        cpu, conf = rng.lognormal(-5, 1, 200), rng.random(200) < 0.4
        times = [block_time(cpu, p, conflicting=conf) for p in (1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-12 for a, b in zip(times, times[1:]))

    def test_list_scheduling_bounds(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            cpu = rng.lognormal(-5, 0.8, 120)
            conf = rng.random(120) < 0.4
            p = int(rng.integers(2, 16))
            total = block_time(cpu, p, conflicting=conf)
            free = cpu[~conf]
            seq_part = cpu[conf].sum()
            lower = max(free.sum() / p, free.max() if free.size else 0.0) + seq_part
            upper = free.sum() / p + (1 - 1 / p) * (free.max() if free.size else 0.0) + seq_part
            assert lower - 1e-12 <= total <= upper + 1e-12
            # the documented coarse bound: mean parallel work plus serialized
            # conflicts minus the largest job never exceeds the makespan
            assert total >= free.sum() / p + seq_part - (free.max() if free.size else 0.0) - 1e-12

    def test_parallel_factor_over_random_blocks(self, fitted_workload):
        # averaged over blocks, parallel time tracks t_v * (c + (1-c)/p)
        seq = measure_verification_times(fitted_workload, 8_000_000, 100, seed=21)
        par = measure_verification_times(fitted_workload, 8_000_000, 100, seed=21, p=4, conflict_rate=0.4)
        factor = 0.4 + 0.6 / 4
        assert par.mean() == pytest.approx(seq.mean() * factor, rel=0.15)

    @pytest.mark.parametrize("p", [2, 4, 16, 64])
    @pytest.mark.parametrize("c", [0.0, 0.4])
    @pytest.mark.parametrize("limit, n", [(8_000_000, 500), (128_000_000, 40)])
    def test_batch_pricing_matches_the_oracle(self, toy_wl, monkeypatch, limit, n, c, p):
        # each block is priced with its whole refill (both cases cross a
        # refill: about 465 blocks per refill at 8M and 29 at 128M); the
        # makespans are taken from the kernel's batch results, in stream order
        batches = []
        lpt = kernels.lpt_makespan

        def recorded(jobs, p):
            makespans = lpt(jobs, p)
            batches.append(makespans.copy())
            return makespans

        monkeypatch.setattr(kernels, "lpt_makespan", recorded)
        stream = TxStream(toy_wl, c, np.random.default_rng(9), limit, p)
        times, jobs = [], []
        for _ in range(n):
            b = stream.next_block_txs()
            times.append(b["time"])
            cpu, conf = column(stream, b, "cpu_time"), column(stream, b, "conflicting")
            jobs.append((cpu[~conf].tolist(), float(cpu[conf].sum())))
        makespans = np.concatenate(batches)[:n].tolist()
        for t, makespan, (free, serial) in zip(times, makespans, jobs):
            assert makespan.hex() == lpt_oracle(free, p).hex()
            if c == 0:
                assert t.hex() == (makespan + serial).hex()
            else:
                assert t == pytest.approx(makespan + serial, rel=2e-12, abs=0.0)
        for k in (1, 3, n // 3):
            assert measure_verification_times(toy_wl, limit, k, seed=9, p=p, conflict_rate=c).tolist() == times[:k]

    @pytest.mark.parametrize("n_blocks", [0, -1, 2.5, True])
    def test_rejects_no_blocks(self, toy_wl, monkeypatch, n_blocks):
        def stream(*args, **kwargs):
            raise AssertionError("a stream was built before n_blocks was checked")

        monkeypatch.setattr("verisim.blocks.TxStream", stream)
        with pytest.raises(ValueError, match="^n_blocks must be an integer >= 1"):
            measure_verification_times(toy_wl, 8_000_000, n_blocks)


    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_a_bad_seed(self, toy_wl, monkeypatch, seed):
        def stream(*args, **kwargs):
            raise AssertionError("a stream was built before the seed was checked")

        monkeypatch.setattr("verisim.blocks.TxStream", stream)
        with pytest.raises(ValueError, match="^seed must be an integer >= 0"):
            measure_verification_times(toy_wl, 8_000_000, 10, seed=seed)

    @pytest.mark.parametrize("seq_out", [np.empty(9), np.empty(11), np.empty(10, dtype=np.float32),
                                         np.empty((10, 1)), [0.0] * 10])
    def test_rejects_a_seq_out_that_does_not_fit(self, toy_wl, monkeypatch, seq_out):
        def stream(*args, **kwargs):
            raise AssertionError("a stream was built before seq_out was checked")

        monkeypatch.setattr("verisim.blocks.TxStream", stream)
        with pytest.raises(ValueError, match="^seq_out must be a float64 array of n_blocks=10 entries"):
            measure_verification_times(toy_wl, 8_000_000, 10, seq_out=seq_out)


class TestKernelProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=100), st.integers(1, 20))
    def test_lpt_bounds(self, times, p):
        arr = np.asarray(times)
        makespan = kernels.lpt_makespan(arr, p)
        assert makespan >= max(arr.sum() / p, arr.max()) - 1e-9
        assert makespan <= arr.sum() / p + (1 - 1 / p) * arr.max() + 1e-9

    def test_lpt_single_processor_is_sum(self):
        arr = np.asarray([0.3, 0.1, 0.9])
        assert kernels.lpt_makespan(arr, 1) == pytest.approx(arr.sum(), rel=1e-15)

    def test_lpt_more_processors_than_jobs(self):
        arr = np.asarray([0.3, 0.1, 0.9])
        assert kernels.lpt_makespan(arr, 7) == pytest.approx(0.9)

    def test_lpt_empty(self):
        assert kernels.lpt_makespan(np.asarray([]), 3) == 0.0
