"""Discrete-event simulation of proof-of-work mining with block verification.

Each miner finds blocks after exponential waits with rate alpha / t_b.  Found
blocks reach every node at the instant they are found (propagation delay is
out of scope).  A verifying node re-executes every block it receives, once,
and cannot mine meanwhile: its pending find is pushed back by the
verification duration.  Blocks extending invalid ancestry cannot be executed
and are rejected for free.  Non-verifiers adopt longer chains instantly and
pay nothing.  At the end the canonical chain is the longest chain of entirely
valid ancestry; only its blocks earn rewards.

Because delivery is instantaneous, every node receives the same blocks in the
same order, so the network holds just two heads: every verifier holds
``v_head``, the longest chain of entirely valid ancestry, and every
non-verifier holds ``s_head``, the longest chain.  A finder extends the head
of its own kind.  ``s_head`` is never shorter than ``v_head``, and it has
valid ancestry only when it is ``v_head`` itself, since a longer valid chain
would have been adopted by the verifiers too.  So a head needs only its
height and whether its ancestry is valid (``Head``), and no block needs a
parent: a new block has valid ancestry exactly when the head it extends does
and its finder does not produce invalid blocks.  Every block of valid
ancestry extends ``v_head`` by one and becomes the new ``v_head``, so the
valid-ancestry blocks are the canonical chain and ``canonical_length`` is the
height of ``v_head``.  Each miner counts its blocks, its blocks of valid
ancestry and their fees; nothing is kept per block.
``stale_blocks`` counts valid-ancestry blocks off the canonical chain; by the
argument it is always 0, and the run asserts so.

Every verifier re-executes on the scenario's one processor count,
``processors_for()``.  The transaction stream is priced at that count (at
one processor when no miner verifies, so no schedule is computed) and hands
out each block with its re-execution time, priced when its batch was packed
(``verisim.blocks``).  A block whose parent has valid ancestry charges that
time; a block on invalid ancestry is rejected unexecuted and charges
nothing.  Miners fall into two classes: the verifiers, which all pay the
same pause for a block except its finder, and the non-verifiers, which pay
nothing.  Each class keeps ``offset``, the pauses its members have paid so
far (always 0 for the non-verifiers), and each verifier counts the pauses
it ``skipped`` as a finder.  A miner's pending find is ``base + offset`` of
its class, so adding a block's cost to the offset defers every member's
find at once (the next-reaction method of Gibson and Bruck, J. Phys. Chem.
A 104, 2000); the waits are memoryless, so a deferred find is still exactly
exponential.  A finder's new base subtracts the current offset, so its own
block does not defer it.  Each class holds its members in a heap of
``(base, index)``, and the next event is the least ``(base + offset,
index)`` over the heap tops, ties going to the lowest miner index.  No step
of a block touches every miner.

A verifier's uptime is the window less the pauses it paid, ``offset -
skipped``, of which only the part inside the window counts.  Pauses queue:
a verifier still busy when a block arrives starts that block's pause when
the current one ends, so only its last busy period can run past the end.
The run keeps that queue for a verifier that pays every block, and the
``(time, cost)`` of the blocks in its current busy period.  A verifier is
idle at its own find, because every pause it paid deferred that find.  So a
verifier whose last find came before the final busy period ends that period
with the queue, and one whose last find falls inside it replays its own
queue from that find over the period's blocks.

The mining stream draws only find times: each miner's first wait, then one
wait per block for its finder.  A wait is its miner's mean times a standard
exponential, which is what ``exponential(scale)`` computes, bit for bit.  The
first waits take one draw of n standard exponentials; the later ones are
drawn ``FIND_DRAWS`` at a time and taken in order.
"""

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from verisim.blocks import TxStream
from verisim.config import ScenarioConfig
from verisim.workload import FittedWorkload

BLOCK_REWARD_ETHER = 2.0
# standard exponentials drawn at once for the find times
FIND_DRAWS = 1024


class Head(NamedTuple):
    """A chain tip: its height and whether every block below it is valid."""

    height: int
    valid_ancestry: bool


GENESIS = Head(0, True)


def fork_choice(head: Head, candidate: Head, verifies: bool) -> Head:
    """The head a node holds after receiving a candidate block.

    Verifying nodes refuse any candidate with an invalid block in its
    ancestry; non-verifying nodes ignore validity.  A candidate replaces the
    head only when strictly longer: ties keep the incumbent.
    """
    if verifies and not candidate.valid_ancestry:
        return head
    return candidate if candidate.height > head.height else head


@dataclass(slots=True)
class MinerOutcome:
    """One miner's counts and shares in a run.

    Slotted and not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, four times the cost, and a 1000-miner run builds
    a thousand of these.  Nothing writes to an outcome after ``_finalize``.
    """

    id: str
    alpha: float
    verifies: bool
    produces_invalid: bool
    found_blocks: int
    canonical_blocks: int
    fee_sum: float
    fee_fraction: float
    reward_fraction: float
    relative_gain_pct: float
    # uptime-weighted hash share: the expected block share given the realized
    # verification pauses (a low-variance estimator of the same quantity the
    # fee fraction realizes)
    expected_fraction: float


@dataclass(frozen=True)
class SimResult:
    seed: int
    miners: tuple
    total_blocks: int
    canonical_length: int
    stale_blocks: int
    rejected_blocks: int
    total_fees: float


def resolve_workload(config: ScenarioConfig, workload: FittedWorkload | None = None) -> FittedWorkload:
    """``workload`` if given, else the fitted-model file that ``config.workload`` names."""
    if workload is not None:
        return workload
    if config.workload is None:
        raise ValueError("workload: pass a fitted model or set the scenario's workload to a fitted-model file")
    return FittedWorkload.load(config.workload)


def run_simulation(config: ScenarioConfig, workload: FittedWorkload | None = None) -> SimResult:
    """One deterministic simulation run at config.base_seed."""
    workload = resolve_workload(config, workload)

    root = np.random.SeedSequence(config.base_seed)
    mine_ss, tx_ss = root.spawn(2)
    rng_mine = np.random.default_rng(mine_ss)

    miners = config.miners
    duration = config.sim_duration
    n = len(miners)
    # the verifiers' class 0 pays, the non-verifiers' class 1 never does
    # (module docstring)
    cls = [0 if m.verifies else 1 for m in miners]
    p = config.processors_for() if any(m.verifies for m in miners) else 1
    stream = TxStream(workload, config.c, np.random.default_rng(tx_ss), config.block_limit, p)

    scales = [1.0 / (m.alpha / config.t_b) for m in miners]
    first = (np.asarray(scales) * rng_mine.standard_exponential(n)).tolist()
    # per class: pauses paid so far, and a heap of (pending find - offset, miner)
    offset = [0.0, 0.0]
    heaps = [[], []]
    for j, k in enumerate(cls):
        heaps[k].append((first[j], j))
    for heap in heaps:
        heapq.heapify(heap)
    classes = [(k, heap) for k, heap in enumerate(heaps) if heap]
    # the busy-until of a verifier that pays every block, the (time, cost) of
    # the blocks in its current busy period, and the number of paid blocks
    # before that period
    busy_until = 0.0
    period = []
    period_start = 0
    # per verifier: the pauses it skipped as a finder, the time of its last
    # find and the number of paid blocks up to and including that find
    skipped, last_find, paid_at_find = [0.0] * n, [0.0] * n, [0] * n
    paid_blocks = 0
    # standard exponentials for the find times, next one last (module docstring)
    draws = []

    # per miner: blocks found, blocks of valid ancestry and their fees
    found, canon, fees = [0] * n, [0] * n, [0.0] * n
    v_head = s_head = GENESIS
    while True:
        # the least (pending find, miner) over the class heap tops
        t = math.inf
        for k, heap in classes:
            base, j = heap[0]
            find = base + offset[k]
            if find < t or (find == t and j < i):
                t, i = find, j
        if t > duration:
            break
        miner = miners[i]
        parent = v_head if miner.verifies else s_head
        # the new block, as the head of the chain it ends
        block = Head(parent.height + 1, parent.valid_ancestry and not miner.produces_invalid)
        packed = stream.next_block_txs()
        found[i] += 1
        if block.valid_ancestry:
            canon[i] += 1
            fees[i] += packed["total_fee"]

        # every node applies the block under its own rule; the producer
        # adopts its own block without re-executing it
        v_head = fork_choice(v_head, block, True)
        s_head = fork_choice(s_head, block, False)
        if not draws:
            draws = rng_mine.standard_exponential(FIND_DRAWS).tolist()[::-1]
        wait = scales[i] * draws.pop()

        # re-execution requires the parent's post-state: blocks extending
        # invalid ancestry are rejected without cost, while invalid blocks on
        # valid parents cost full verification before rejection.  A verifier
        # always extends the valid head, so it finds only blocks that cost.
        if parent.valid_ancestry:
            cost = packed["time"]
            # mining is suspended while verifying: every verifier's pending
            # find moves back with the offset
            offset[0] += cost
            if busy_until > t:
                busy_until += cost
                period.append((t, cost))
            else:
                busy_until = t + cost
                period = [(t, cost)]
                period_start = paid_blocks
            paid_blocks += 1
            if miner.verifies:
                skipped[i] += cost
                last_find[i] = t
                paid_at_find[i] = paid_blocks
        k = cls[i]
        heapq.heapreplace(heaps[k], (t + wait - offset[k], i))

    uptime = []
    for j, k in enumerate(cls):
        if k == 1:
            uptime.append(float(duration))
            continue
        end = busy_until
        if paid_at_find[j] > period_start:
            # its last find fell inside the final busy period: it was idle
            # then, so its own queue restarts at that find
            end = last_find[j]
            for s, cost in period[paid_at_find[j] - period_start:]:
                end = max(end, s) + cost
        # only the part of the pauses inside the window counts
        uptime.append(duration - (offset[0] - skipped[j]) + max(end - duration, 0.0))
    return _finalize(config, found, canon, fees, v_head, uptime)


def _finalize(config, found, canon, fees, v_head: Head, uptime) -> SimResult:
    # the valid-ancestry blocks form one chain, ending at v_head (module docstring)
    canonical_length = v_head.height
    total_blocks = sum(found)
    stale = sum(canon) - canonical_length
    rejected = total_blocks - sum(canon)
    total_fees = sum(fees)
    total_reward = total_fees + BLOCK_REWARD_ETHER * canonical_length

    exposure = [m.alpha * up for m, up in zip(config.miners, uptime)]
    total_exposure = sum(exposure)

    fee_fractions = [fee / total_fees if total_fees > 0 else 0.0 for fee in fees]
    # positional: keyword construction costs 4-5 times as much, and a run
    # builds one outcome per miner
    miners = tuple(
        MinerOutcome(
            m.id,
            m.alpha,
            m.verifies,
            m.produces_invalid,
            n_found,
            n_canon,
            fee,
            fee_fraction,
            (fee + BLOCK_REWARD_ETHER * n_canon) / total_reward if total_reward > 0 else 0.0,
            100.0 * (fee_fraction - m.alpha) / m.alpha,
            e / total_exposure if total_exposure > 0 else 0.0,
        )
        for m, n_found, n_canon, fee, fee_fraction, e in zip(config.miners, found, canon, fees, fee_fractions, exposure)
    )

    assert stale == 0, f"{stale} blocks of valid ancestry are off the canonical chain"
    return SimResult(
        seed=config.base_seed,
        miners=miners,
        total_blocks=total_blocks,
        canonical_length=canonical_length,
        stale_blocks=stale,
        rejected_blocks=rejected,
        total_fees=total_fees,
    )
