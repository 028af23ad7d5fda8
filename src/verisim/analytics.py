"""Closed-form expected-reward model for verifying and non-verifying miners.

All quantities are fractions of the network total.  A verifying miner loses
mining time to verification; the slowdown shifts reward share from verifiers
to non-verifiers while the total stays 1.  Parallel verification shrinks the
slowdown by the factor c + (1 - c) / p.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MinerPower:
    id: str
    alpha: float
    verifies: bool


@dataclass(frozen=True)
class PowerProfile:
    miners: tuple

    def __post_init__(self):
        alphas = [m.alpha for m in self.miners]
        if any(not 0 < a <= 1 for a in alphas):
            raise ValueError("every hash-power fraction must lie in (0, 1]")
        if abs(sum(alphas) - 1.0) > 1e-9:
            raise ValueError(f"hash powers must sum to 1, got {sum(alphas)}")

    @classmethod
    def make(cls, entries) -> "PowerProfile":
        return cls(tuple(MinerPower(str(i), float(a), bool(v)) for i, a, v in entries))

    @property
    def alpha_verifying(self) -> float:
        return sum(m.alpha for m in self.miners if m.verifies)

    @property
    def alpha_skipping(self) -> float:
        return sum(m.alpha for m in self.miners if not m.verifies)


@dataclass(frozen=True)
class VerificationParams:
    t_v: float
    t_b: float
    c: float = 0.0
    p: int = 1

    def __post_init__(self):
        # NaN fails every comparison: test finiteness first
        if not math.isfinite(self.t_v) or self.t_v < 0:
            raise ValueError(f"t_v (the verification time) must be finite and non-negative, got {self.t_v!r}")
        if not math.isfinite(self.t_b) or self.t_b <= 0:
            raise ValueError(f"t_b (the block interval) must be finite and positive, got {self.t_b!r}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError("conflict rate must lie in [0, 1]")
        if self.p < 1:
            raise ValueError("processor count must be >= 1")


def seq_slowdown(profile: PowerProfile, t_v: float) -> float:
    """Expected mining slowdown per block under sequential verification."""
    if t_v < 0:
        raise ValueError("verification time must be non-negative")
    return (1.0 - profile.alpha_verifying) * t_v


def par_slowdown(profile: PowerProfile, params: VerificationParams) -> float:
    """Slowdown under parallel verification: conflicting work stays sequential."""
    factor = params.c + (1.0 - params.c) / params.p
    return (1.0 - profile.alpha_verifying) * params.t_v * factor


def verifier_reward(alpha_v: float, t_b: float, delta: float) -> float:
    """Expected reward fraction of a verifier with power alpha_v; always <= alpha_v."""
    if not 0.0 < alpha_v <= 1.0:
        raise ValueError("alpha_v must lie in (0, 1]")
    if delta < 0 or t_b <= 0:
        raise ValueError("need delta >= 0 and t_b > 0")
    return alpha_v * t_b / (t_b + delta)


def nonverifier_reward(alpha_s: float, alpha_skip_total: float, alpha_verify_total: float, reward_verify_total: float) -> float:
    """Expected reward fraction of a non-verifier: its power plus its share of the verifiers' loss."""
    if alpha_skip_total <= 0:
        raise ValueError("no non-verifying hash power: reward redistribution undefined")
    if alpha_s > alpha_skip_total + 1e-12:
        raise ValueError("alpha_s cannot exceed the non-verifying total")
    if reward_verify_total > alpha_verify_total + 1e-12:
        raise ValueError("verifier reward cannot exceed verifier power")
    surplus = alpha_verify_total - reward_verify_total
    return alpha_s + alpha_s * surplus / alpha_skip_total


@dataclass(frozen=True)
class RewardRow:
    id: str
    alpha: float
    verifies: bool
    expected_fraction: float
    relative_gain_pct: float


def reward_table(profile: PowerProfile, params: VerificationParams, mode: str = "sequential") -> list:
    """Per-miner expected reward fractions and relative gains for one scenario.

    A single network-wide slowdown (from the profile's total verifier power)
    applies to every verifier.  Fractions sum to 1.
    """
    if mode == "sequential":
        delta = seq_slowdown(profile, params.t_v)
    elif mode == "parallel":
        delta = par_slowdown(profile, params)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    alpha_v_total = profile.alpha_verifying
    alpha_s_total = profile.alpha_skipping
    reward_v_total = alpha_v_total * params.t_b / (params.t_b + delta) if alpha_v_total > 0 else 0.0

    rows = []
    for m in profile.miners:
        if m.verifies:
            frac = verifier_reward(m.alpha, params.t_b, delta)
        else:
            frac = nonverifier_reward(m.alpha, alpha_s_total, alpha_v_total, reward_v_total)
        rows.append(
            RewardRow(
                id=m.id,
                alpha=m.alpha,
                verifies=m.verifies,
                expected_fraction=frac,
                relative_gain_pct=100.0 * (frac - m.alpha) / m.alpha,
            )
        )
    total = sum(r.expected_fraction for r in rows)
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"reward fractions must sum to 1, got {total}")
    return rows


def uniform_profile(n_miners: int, nonverifier_alpha: float | None = None) -> PowerProfile:
    """n equal miners; optionally one non-verifier with the given power, the
    rest splitting the residual equally."""
    if n_miners - (nonverifier_alpha is not None) < 1:
        raise ValueError("no room left for verifying miners")
    if nonverifier_alpha is None:
        return PowerProfile.make((f"m{i}", 1.0 / n_miners, True) for i in range(n_miners))
    residual = (1.0 - nonverifier_alpha) / (n_miners - 1)
    entries = [("skip", nonverifier_alpha, False)]
    entries += [(f"m{i}", residual, True) for i in range(1, n_miners)]
    return PowerProfile.make(entries)
