"""Golden block packing: ``TxStream`` must hand out the recorded blocks bit for bit.

For each case below (a workload at one block limit and conflict rate, seed
11) the recorded file holds the number of blocks packed, a SHA-256 digest of
every block's entry and the first three entries in clear.  An entry is
``[tx_count, gas_used_total, repr(total_fee), repr(seq_time),
repr(time)]`` from a stream priced at 4 processors.  With the toy workload,
whose mixtures have one component each, the block counts cross at least one
refill at 21000 (about 32,800 blocks per refill there), three at 8M (about
465) and several at 128M (about 29).  The ``mix_`` cases use a
three-component used gas and a two-component price, so that every fill draws
its component uniforms before its normals; they cross three refills at 8M
(about 4,000 blocks per refill) and at 128M (about 420).  A change to how
blocks are packed that keeps the stream, the refill points and the float
expressions leaves every entry unchanged.  Re-record only when packing
changes on purpose::

    PYTHONPATH=src python -m tests.test_pack_golden
"""

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


def _entries(workload, limit, c, n):
    stream = TxStream(workload, c, np.random.default_rng(SEED), limit, 4)
    entries = []
    for _ in range(n):
        b = stream.next_block_txs()
        entries.append(
            [b["tx_count"], b["gas_used_total"], repr(b["total_fee"]), repr(b["seq_time"]), repr(b["time"])]
        )
    return entries


def _summary(entries) -> dict:
    digest = hashlib.sha256(json.dumps(entries).encode("utf-8")).hexdigest()
    return {"blocks": len(entries), "sha256": digest, "head": entries[:HEAD]}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, golden):
    make, *case = CASES[name]
    assert _summary(_entries(make(), *case)) == golden[name]


def record():
    payload = {name: _summary(_entries(make(), *case)) for name, (make, *case) in CASES.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
