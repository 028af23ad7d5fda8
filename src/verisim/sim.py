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
would have been adopted by the verifiers too.  So every block of valid
ancestry extends ``v_head`` by one and becomes the new ``v_head``: the valid
blocks form a single chain, the canonical one, and ``stale_blocks`` is always
0.  It stays in ``SimResult`` as the accounting check of that argument.

The pending finds live in one array and the next event is its minimum, ties
going to the lowest miner index.  A verification pause adds its cost to the
pending finds of the verifiers in place (the next-reaction method of Gibson
and Bruck, J. Phys. Chem. A 104, 2000); the waits are memoryless, so a
deferred find is still exactly exponential.
"""

from dataclasses import dataclass

import numpy as np

from verisim.blocks import Block, TxStream, _block_from_stream, make_genesis, summary_stats
from verisim.config import ScenarioConfig
from verisim.workload import FittedWorkload

BLOCK_REWARD_ETHER = 2.0


def fork_choice(head: Block, candidate: Block, verifies: bool) -> Block:
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
    expected_gain_pct: float


@dataclass(frozen=True)
class SimResult:
    seed: int
    block_limit: int
    mode: str
    duration: float
    miners: tuple
    total_blocks: int
    canonical_length: int
    stale_blocks: int
    rejected_blocks: int
    total_fees: float
    verification_time_stats: dict

    def miner(self, miner_id: str) -> MinerOutcome:
        for m in self.miners:
            if m.id == miner_id:
                return m
        raise KeyError(miner_id)


def run_simulation(config: ScenarioConfig, workload: FittedWorkload | None = None) -> SimResult:
    """One deterministic simulation run at config.base_seed."""
    config.validate()
    if workload is None:
        if config.workload is None:
            raise ValueError("no workload: set config.workload to a fitted-model file")
        workload = FittedWorkload.load(config.workload)

    root = np.random.SeedSequence(config.base_seed)
    mine_ss, tx_ss = root.spawn(2)
    rng_mine = np.random.default_rng(mine_ss)
    stream = TxStream(workload, config.c, np.random.default_rng(tx_ss), config.block_limit)

    miners = config.miners
    duration = config.sim_duration
    parallel = config.mode == "parallel"
    # every parallel cost needed later must be cached before txs are dropped
    verifier_ps = sorted({config.processors_for(m) for m in miners if m.verifies} | {config.p})
    slot = {p: k for k, p in enumerate(verifier_ps)}
    verifiers = [j for j, m in enumerate(miners) if m.verifies]
    # for each finder: the verifiers that re-execute its blocks, and where
    # each one's processor count sits in verifier_ps
    others = [np.asarray([j for j in verifiers if j != i], dtype=np.intp) for i in range(len(miners))]
    other_slots = [np.asarray([slot[config.processors_for(miners[j])] for j in o], dtype=np.intp) for o in others]

    scales = [1.0 / (m.alpha / config.t_b) for m in miners]
    next_find = np.asarray([rng_mine.exponential(scale) for scale in scales])
    busy_until = np.zeros(len(miners))
    busy_in_window = np.zeros(len(miners))

    v_head = s_head = make_genesis()
    blocks = []
    while True:
        i = int(np.argmin(next_find))
        t = float(next_find[i])
        if t > duration:
            break
        miner = miners[i]
        block = _block_from_stream(stream, len(blocks) + 1, v_head if miner.verifies else s_head, miner, t)
        blocks.append(block)
        if parallel:
            costs = np.asarray([block.parallel_verification_time(p) for p in verifier_ps])
        block.drop_txs()

        # every node applies the block under its own rule; the producer
        # adopts its own block without re-executing it
        v_head = fork_choice(v_head, block, True)
        s_head = fork_choice(s_head, block, False)
        next_find[i] = t + rng_mine.exponential(scales[i])

        # re-execution requires the parent's post-state: blocks extending
        # invalid ancestry are rejected without cost, while invalid blocks on
        # valid parents cost full verification before rejection
        if block.parent.valid_ancestry:
            idx = others[i]
            cost = costs[other_slots[i]] if parallel else block.seq_verification_time
            start = np.maximum(t, busy_until[idx])
            end = start + cost
            busy_until[idx] = end
            # only the part of the pause inside the window counts
            busy_in_window[idx] += np.minimum(end, duration) - np.minimum(start, duration)
            # mining is suspended while verifying: push the pending find back
            next_find[idx] += cost

    uptime = {m.id: float(duration - busy) for m, busy in zip(miners, busy_in_window)}
    return _finalize(config, blocks, uptime)


def _finalize(config: ScenarioConfig, blocks: list, uptime: dict) -> SimResult:
    best = None
    for b in blocks:
        if b.valid_ancestry and (best is None or b.height > best.height):
            best = b  # ties keep the earlier block: strict inequality

    canonical_ids = set()
    cursor = best
    while cursor is not None and cursor.height > 0:
        canonical_ids.add(cursor.id)
        cursor = cursor.parent

    found = {m.id: 0 for m in config.miners}
    canon = {m.id: 0 for m in config.miners}
    fees = {m.id: 0.0 for m in config.miners}
    stale = rejected = 0
    for b in blocks:
        found[b.miner_id] += 1
        if b.id in canonical_ids:
            canon[b.miner_id] += 1
            fees[b.miner_id] += b.total_fee
        elif b.valid_ancestry:
            stale += 1
        else:
            rejected += 1

    total_fees = sum(fees.values())
    canonical_length = len(canonical_ids)
    total_reward = total_fees + BLOCK_REWARD_ETHER * canonical_length

    exposure = {m.id: m.alpha * uptime[m.id] for m in config.miners}
    total_exposure = sum(exposure.values())

    miners = []
    for m in config.miners:
        fee_fraction = fees[m.id] / total_fees if total_fees > 0 else 0.0
        reward = fees[m.id] + BLOCK_REWARD_ETHER * canon[m.id]
        reward_fraction = reward / total_reward if total_reward > 0 else 0.0
        expected = exposure[m.id] / total_exposure if total_exposure > 0 else 0.0
        miners.append(
            MinerOutcome(
                id=m.id,
                alpha=m.alpha,
                verifies=m.verifies,
                produces_invalid=m.produces_invalid,
                found_blocks=found[m.id],
                canonical_blocks=canon[m.id],
                fee_sum=fees[m.id],
                fee_fraction=fee_fraction,
                reward_fraction=reward_fraction,
                relative_gain_pct=100.0 * (fee_fraction - m.alpha) / m.alpha,
                expected_fraction=expected,
                expected_gain_pct=100.0 * (expected - m.alpha) / m.alpha,
            )
        )

    if config.mode == "parallel":
        tv = [b.parallel_verification_time(config.p) for b in blocks]
    else:
        tv = [b.seq_verification_time for b in blocks]

    assert stale + rejected + canonical_length == len(blocks)
    return SimResult(
        seed=config.base_seed,
        block_limit=config.block_limit,
        mode=config.mode,
        duration=config.sim_duration,
        miners=tuple(miners),
        total_blocks=len(blocks),
        canonical_length=canonical_length,
        stale_blocks=stale,
        rejected_blocks=rejected,
        total_fees=total_fees,
        verification_time_stats=summary_stats(np.asarray(tv)),
    )
