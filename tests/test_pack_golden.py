"""Golden block packing: ``TxStream`` must hand out the recorded blocks bit for bit.

For each case below (a workload at one block limit and conflict rate, seed
11) the recorded file holds the number of blocks packed, a SHA-256 digest of
every block's entry, the first three entries in clear and a second digest
over the integer fields alone.  An entry is ``[tx_count, gas_used_total,
repr(total_fee), repr(seq_time), repr(time)]`` from a stream priced at 4
processors; the second digest covers each block's ``[tx_count,
gas_used_total, start]``.  With the toy workload,
whose mixtures have one component each, the block counts cross at least one
refill at 21000 (about 32,800 blocks per refill there), three at 8M (about
465) and several at 128M (about 29).  The ``mix_`` cases use a
three-component used gas and a two-component price, so that every fill
gathers from tables of several components, one with a tail past 8M; they
cross three refills at 8M (about 4,000 blocks per refill) and at 128M
(about 420).

A block's ``total_fee`` and ``seq_time`` are sums of its own rows, and its
``time`` is priced from those rows alone, so a change that keeps the draws
and the block ends leaves every entry unchanged, whatever its refill points
or batches.  The integer digest holds the draws and block ends alone: a
change that moves only how a block's rows are summed must pass it
unrecorded, and re-records only the float digest and head, reporting each
float's drift.  Re-record only when packing changes on purpose::

    PYTHONPATH=src python -m tests.test_pack_golden
"""

import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest

from tests.helpers import mixture_workload, toy_workload
from verisim.blocks import TxStream

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "pack_golden.json"

SEED = 11
HEAD = 3

# (workload, block limit, conflict rate, blocks)
CASES = {
    f"{limit}_c{c}": (toy_workload, limit, c, n)
    for limit, n in ((21_000, 34_000), (8_000_000, 1_500), (128_000_000, 120))
    for c in (0.0, 0.4)
} | {
    f"mix_{limit}_c0.4": (mixture_workload, limit, 0.4, n)
    for limit, n in ((8_000_000, 13_000), (128_000_000, 1_400))
}


def _digest(entries) -> str:
    return hashlib.sha256(json.dumps(entries).encode("utf-8")).hexdigest()


@functools.cache
def _summary(name) -> dict:
    make, limit, c, n = CASES[name]
    stream = TxStream(make(), c, np.random.default_rng(SEED), limit, 4)
    blocks = [stream.next_block_txs() for _ in range(n)]
    entries = [
        [b["tx_count"], b["gas_used_total"], repr(b["total_fee"]), repr(b["seq_time"]), repr(b["time"])]
        for b in blocks
    ]
    integers = [[b["tx_count"], b["gas_used_total"], b["start"]] for b in blocks]
    return {"blocks": len(entries), "sha256": _digest(entries), "head": entries[:HEAD], "int_sha256": _digest(integers)}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, golden):
    assert _summary(name) == golden[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_integer_fields_match_golden(name, golden):
    assert _summary(name)["int_sha256"] == golden[name]["int_sha256"]


def record():
    payload = {name: _summary(name) for name in CASES}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
