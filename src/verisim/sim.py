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

The pending finds live in one array and the next event is its minimum, ties
going to the lowest miner index.  Each block prices its re-execution once
per miner: a verifier pays it on its own processor count (one in sequential
mode), the finder and the non-verifiers pay 0.  Adding that vector to the
pending finds defers them in place (the next-reaction method of Gibson and
Bruck, J. Phys. Chem. A 104, 2000); the waits are memoryless, so a deferred
find is still exactly exponential.

The mining stream draws only find times: each miner's first wait, then one
wait per block for its finder.  A wait is its miner's mean times a standard
exponential, which is what ``exponential(scale)`` computes, bit for bit; the
standard exponentials after the first waits are drawn ``FIND_DRAWS`` at a
time and taken in order.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from verisim.blocks import TxStream, verification_seconds
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


@dataclass(frozen=True)
class MinerOutcome:
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

    def miner(self, miner_id: str) -> MinerOutcome:
        for m in self.miners:
            if m.id == miner_id:
                return m
        raise KeyError(miner_id)


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
    stream = TxStream(workload, config.c, np.random.default_rng(tx_ss), config.block_limit)

    miners = config.miners
    duration = config.sim_duration
    n = len(miners)
    # one verification cost per distinct verifier processor count, then a 0
    # that non-verifiers pay
    ps = sorted({config.processors_for(m) for m in miners if m.verifies})
    costs = np.zeros(len(ps) + 1)
    slot = np.asarray([ps.index(config.processors_for(m)) if m.verifies else len(ps) for m in miners])

    scales = [1.0 / (m.alpha / config.t_b) for m in miners]
    next_find = np.asarray([rng_mine.exponential(scale) for scale in scales])
    busy_until = np.zeros(n)
    busy_in_window = np.zeros(n)
    # per-block buffers, rewritten in place
    paid, start, inside = np.empty(n), np.empty(n), np.empty(n)
    # standard exponentials for the find times, next one last (module docstring)
    draws = []
    argmin = next_find.argmin

    # per miner: blocks found, blocks of valid ancestry and their fees
    found, canon, fees = [0] * n, [0] * n, [0.0] * n
    v_head = s_head = GENESIS
    while True:
        i = int(argmin())
        t = float(next_find[i])
        if t > duration:
            break
        miner = miners[i]
        parent = v_head if miner.verifies else s_head
        # the new block, as the head of the chain it ends
        block = Head(parent.height + 1, parent.valid_ancestry and not miner.produces_invalid)
        packed = stream.next_block_txs()
        for k, p in enumerate(ps):
            costs[k] = verification_seconds(packed, p)
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
        next_find[i] = t + scales[i] * draws.pop()

        # re-execution requires the parent's post-state: blocks extending
        # invalid ancestry are rejected without cost, while invalid blocks on
        # valid parents cost full verification before rejection
        if parent.valid_ancestry:
            costs.take(slot, out=paid)
            paid[i] = 0.0
            # a miner that pays nothing stays idle: its pause adds 0 everywhere
            np.maximum(busy_until, t, out=start)
            np.add(start, paid, out=busy_until)
            # only the part of the pause inside the window counts
            np.minimum(busy_until, duration, out=inside)
            inside -= np.minimum(start, duration, out=start)
            busy_in_window += inside
            # mining is suspended while verifying: push the pending find back
            next_find += paid

    uptime = [float(duration - busy) for busy in busy_in_window]
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

    miners = []
    for k, m in enumerate(config.miners):
        fee_fraction = fees[k] / total_fees if total_fees > 0 else 0.0
        reward = fees[k] + BLOCK_REWARD_ETHER * canon[k]
        reward_fraction = reward / total_reward if total_reward > 0 else 0.0
        expected = exposure[k] / total_exposure if total_exposure > 0 else 0.0
        miners.append(
            MinerOutcome(
                id=m.id,
                alpha=m.alpha,
                verifies=m.verifies,
                produces_invalid=m.produces_invalid,
                found_blocks=found[k],
                canonical_blocks=canon[k],
                fee_sum=fees[k],
                fee_fraction=fee_fraction,
                reward_fraction=reward_fraction,
                relative_gain_pct=100.0 * (fee_fraction - m.alpha) / m.alpha,
                expected_fraction=expected,
            )
        )

    assert stale == 0, f"{stale} blocks of valid ancestry are off the canonical chain"
    return SimResult(
        seed=config.base_seed,
        miners=tuple(miners),
        total_blocks=total_blocks,
        canonical_length=canonical_length,
        stale_blocks=stale,
        rejected_blocks=rejected,
        total_fees=total_fees,
    )
