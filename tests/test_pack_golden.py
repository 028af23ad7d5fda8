"""Golden block packing: ``TxStream`` must hand out the recorded blocks bit for bit.

For each case below (the toy workload at one block limit and conflict rate,
seed 11) the recorded file holds the number of blocks packed, a SHA-256 digest
of every block's entry and the first three entries in clear.  An entry is
``[tx_count, gas_used_total, repr(total_fee), repr(seq_time),
repr(time)]`` from a stream priced at 4 processors.  The block counts
cross at least one refill at 21000 (about 32,800 blocks per refill there),
three at 8M (about 465) and several at 128M (about 29).  A change to how
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

from tests.helpers import toy_workload
from verisim.blocks import TxStream

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "pack_golden.json"

SEED = 11
HEAD = 3

# (block limit, conflict rate, blocks)
CASES = {
    f"{limit}_c{c}": (limit, c, n)
    for limit, n in ((21_000, 34_000), (8_000_000, 1_500), (128_000_000, 120))
    for c in (0.0, 0.4)
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
def test_matches_golden(name, golden, toy_wl):
    assert _summary(_entries(toy_wl, *CASES[name])) == golden[name]


def record():
    wl = toy_workload()
    payload = {name: _summary(_entries(wl, *case)) for name, case in CASES.items()}
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
