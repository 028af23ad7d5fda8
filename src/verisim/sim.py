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
height of ``v_head``.  Each block is recorded as its finder, that validity
flag, its fee and its verification time, nothing more.  ``stale_blocks``
counts valid-ancestry blocks off the canonical chain; by the argument it is
always 0, and the run asserts so.

The pending finds live in one array and the next event is its minimum, ties
going to the lowest miner index.  A verification pause adds its cost to the
pending finds of the verifiers in place (the next-reaction method of Gibson
and Bruck, J. Phys. Chem. A 104, 2000); the waits are memoryless, so a
deferred find is still exactly exponential.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from verisim.blocks import TxStream, summary_stats, verification_seconds
from verisim.config import ScenarioConfig
from verisim.workload import FittedWorkload

BLOCK_REWARD_ETHER = 2.0


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
    # every processor count a verifier uses, and config.p for the t_v statistics
    verifier_ps = sorted({config.processors_for(m) for m in miners if m.verifies} | {config.p})
    tv_slot = verifier_ps.index(config.p)
    verifiers = np.flatnonzero([m.verifies for m in miners])
    # a non-verifier's slot is never read
    slots = np.searchsorted(verifier_ps, [config.processors_for(m) for m in miners])
    # for each finder: the verifiers that re-execute its blocks, and where
    # each one's processor count sits in verifier_ps
    others = [verifiers[verifiers != i] for i in range(len(miners))]
    other_slots = [slots[o] for o in others]

    scales = [1.0 / (m.alpha / config.t_b) for m in miners]
    next_find = np.asarray([rng_mine.exponential(scale) for scale in scales])
    busy_until = np.zeros(len(miners))
    busy_in_window = np.zeros(len(miners))

    # per block: its finder, whether its ancestry is valid, its fee and its t_v at config.p
    finders, valid, fees, tvs = [], [], [], []
    v_head = s_head = GENESIS
    while True:
        i = int(np.argmin(next_find))
        t = float(next_find[i])
        if t > duration:
            break
        miner = miners[i]
        parent = v_head if miner.verifies else s_head
        # the new block, as the head of the chain it ends
        block = Head(parent.height + 1, parent.valid_ancestry and not miner.produces_invalid)
        packed = stream.next_block_txs()
        if parallel:
            costs = np.asarray([verification_seconds(packed, p) for p in verifier_ps])
            tv = costs[tv_slot]
        else:
            tv = packed["seq_time"]
        tvs.append(tv)
        finders.append(i)
        valid.append(block.valid_ancestry)
        fees.append(packed["total_fee"])

        # every node applies the block under its own rule; the producer
        # adopts its own block without re-executing it
        v_head = fork_choice(v_head, block, True)
        s_head = fork_choice(s_head, block, False)
        next_find[i] = t + rng_mine.exponential(scales[i])

        # re-execution requires the parent's post-state: blocks extending
        # invalid ancestry are rejected without cost, while invalid blocks on
        # valid parents cost full verification before rejection
        if parent.valid_ancestry:
            idx = others[i]
            cost = costs[other_slots[i]] if parallel else tv
            start = np.maximum(t, busy_until[idx])
            end = start + cost
            busy_until[idx] = end
            # only the part of the pause inside the window counts
            busy_in_window[idx] += np.minimum(end, duration) - np.minimum(start, duration)
            # mining is suspended while verifying: push the pending find back
            next_find[idx] += cost

    uptime = [float(duration - busy) for busy in busy_in_window]
    return _finalize(config, finders, valid, fees, tvs, v_head, uptime)


def _finalize(config, finders, valid, block_fees, tvs, v_head: Head, uptime) -> SimResult:
    n = len(config.miners)
    found, canon, fees = [0] * n, [0] * n, [0.0] * n
    for i, ok, fee in zip(finders, valid, block_fees):
        found[i] += 1
        if ok:
            canon[i] += 1
            fees[i] += fee

    # the valid-ancestry blocks form one chain, ending at v_head (module docstring)
    canonical_length = v_head.height
    stale = sum(canon) - canonical_length
    rejected = len(finders) - sum(canon)
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
                expected_gain_pct=100.0 * (expected - m.alpha) / m.alpha,
            )
        )

    assert stale == 0, f"{stale} blocks of valid ancestry are off the canonical chain"
    return SimResult(
        seed=config.base_seed,
        block_limit=config.block_limit,
        mode=config.mode,
        duration=config.sim_duration,
        miners=tuple(miners),
        total_blocks=len(finders),
        canonical_length=canonical_length,
        stale_blocks=stale,
        rejected_blocks=rejected,
        total_fees=total_fees,
        verification_time_stats=summary_stats(np.asarray(tvs)),
    )
