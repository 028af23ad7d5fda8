"""Closed-form expected-reward model for verifying and non-verifying miners.

All quantities are fractions of the network total.  A verifying miner loses
mining time to verification; the slowdown shifts reward share from verifiers
to non-verifiers while the total stays 1.  Parallel verification shrinks the
slowdown by the factor c + (1 - c) / p.
"""

from dataclasses import dataclass

from verisim.config import MODES, MinerConfig, check_lineup
from verisim.fields import require_finite, require_integer, require_positive


@dataclass(frozen=True)
class PowerProfile:
    """A lineup of ``MinerConfig``s, checked as a scenario's lineup is."""

    miners: tuple

    def __post_init__(self):
        check_lineup(self.miners)

    @classmethod
    def make(cls, entries) -> "PowerProfile":
        """A lineup from ``(id, alpha, verifies)`` triples."""
        return cls(tuple(MinerConfig(str(i), float(a), bool(v)) for i, a, v in entries))


@dataclass(frozen=True)
class VerificationParams:
    t_v: float
    t_b: float
    c: float = 0.0
    p: int = 1

    def __post_init__(self):
        require_finite("t_v (the verification time)", self.t_v, 0)
        require_positive("t_b (the block interval)", self.t_b)
        require_finite("c (the conflict rate)", self.c, 0, 1)
        require_integer("p (the processor count)", self.p)


def slowdown(alpha_verifying: float, t_v: float, c: float = 0.0, p: int = 1) -> float:
    """Expected mining slowdown per block: the non-verifying share of the
    network's verification time, of which the conflicting part c stays
    sequential on p processors.  p = 1 is sequential verification for any c."""
    return (1.0 - alpha_verifying) * t_v * (c + (1.0 - c) / p)


@dataclass(frozen=True)
class RewardRow:
    id: str
    alpha: float
    verifies: bool
    expected_fraction: float
    relative_gain_pct: float


def reward_table(lineup, params: VerificationParams, mode: str = "sequential") -> list:
    """Per-miner expected reward fractions and relative gains for one scenario.

    ``lineup`` is a ``PowerProfile`` or a ``ScenarioConfig``: only the ``id``,
    ``alpha`` and ``verifies`` of its miners are read.  A single network-wide
    slowdown (from the lineup's total verifier power) applies to every
    verifier; the non-verifiers split the verifiers' loss by power.  Fractions
    sum to 1.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    alpha_v_total = sum(m.alpha for m in lineup.miners if m.verifies)
    alpha_s_total = sum(m.alpha for m in lineup.miners if not m.verifies)
    delta = slowdown(alpha_v_total, params.t_v, params.c, 1 if mode == "sequential" else params.p)
    t_b = params.t_b
    surplus = alpha_v_total - alpha_v_total * t_b / (t_b + delta)

    rows = []
    for m in lineup.miners:
        if m.verifies:
            frac = m.alpha * t_b / (t_b + delta)
        else:
            frac = m.alpha + m.alpha * surplus / alpha_s_total
        rows.append(RewardRow(m.id, m.alpha, m.verifies, frac, 100.0 * (frac - m.alpha) / m.alpha))
    total = sum(r.expected_fraction for r in rows)
    if abs(total - 1.0) > 1e-9:
        raise AssertionError(f"reward fractions must sum to 1, got {total}")
    return rows

