"""Scenario configuration: miner lineup and run parameters, strictly checked when read from JSON."""

from dataclasses import asdict, dataclass, replace

from verisim.fields import require_finite, require_integer, require_list, require_object, require_positive
from verisim.workload import check_block_limit

MODES = ("sequential", "parallel")
# Work caps, over 1000x the largest scenario in use (one day at t_b = 12.42 s,
# about 6,957 blocks, and 20 runs): a typo must not ask for unbounded work.
MAX_BLOCKS_PER_RUN = 10**7
MAX_RUNS = 10**5


@dataclass(frozen=True)
class MinerConfig:
    id: str
    alpha: float
    verifies: bool = True
    processors: int | None = None  # None: use the scenario-wide processor count
    produces_invalid: bool = False

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a string, got {self.id!r}")
        # a JSON "false" string is truthy: flags must be real bools
        for name in ("verifies", "produces_invalid"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r} (miner {self.id})")
        require_finite(f"alpha (miner {self.id})", self.alpha)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"miner {self.id}: alpha must lie in (0, 1]")
        if self.processors is not None:
            require_integer(f"processors (miner {self.id})", self.processors)
        if self.produces_invalid and not self.verifies:
            raise ValueError(f"miner {self.id}: the invalid-block producer must verify")


@dataclass(frozen=True)
class ScenarioConfig:
    block_limit: int
    miners: tuple
    t_b: float = 12.42
    mode: str = "sequential"
    c: float = 0.0
    p: int = 1
    invalid_rate: float = 0.0
    sim_duration: float = 3600.0
    runs: int = 20
    base_seed: int = 42
    workload: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_block_limit(self.block_limit)
        require_positive("t_b", self.t_b)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        require_finite("c", self.c, 0, 1)
        require_integer("p", self.p)
        if not 0.0 <= require_finite("invalid_rate", self.invalid_rate) < 0.5:
            raise ValueError(f"invalid_rate must lie in [0, 0.5), got {self.invalid_rate!r}")
        require_positive("sim_duration", self.sim_duration)
        blocks = self.sim_duration / self.t_b
        if blocks > MAX_BLOCKS_PER_RUN:
            raise ValueError(
                f"sim_duration must span at most {MAX_BLOCKS_PER_RUN} block intervals t_b, got {blocks:.4g}"
            )
        require_integer("runs", self.runs, 1, MAX_RUNS)
        require_integer("base_seed", self.base_seed, 0)
        if self.workload is not None and not isinstance(self.workload, str):
            raise ValueError(f"workload must be a file path or null, got {self.workload!r}")
        if not self.miners:
            raise ValueError("need at least one miner")
        total = sum(m.alpha for m in self.miners)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"miner hash powers must sum to 1, got {total}")
        ids = [m.id for m in self.miners]
        if len(set(ids)) != len(ids):
            raise ValueError("miner ids must be unique")
        invalid = [m for m in self.miners if m.produces_invalid]
        if self.invalid_rate > 0:
            if len(invalid) != 1:
                raise ValueError("invalid_rate > 0 requires exactly one invalid-block producer")
            if abs(invalid[0].alpha - self.invalid_rate) > 1e-9:
                raise ValueError("the invalid producer's alpha must equal invalid_rate")
        elif invalid:
            raise ValueError("invalid_rate is 0 but a miner produces invalid blocks")

    def processors_for(self, miner: MinerConfig | None = None) -> int:
        """Processors a verifier re-executes blocks on, or the scenario's own count with no miner.

        Sequential verification is verification on one processor.
        """
        if self.mode == "sequential":
            return 1
        return self.p if miner is None or miner.processors is None else miner.processors

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, base_seed=int(seed))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["miners"] = [asdict(m) for m in self.miners]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        d = require_object("configuration", d, cls)
        miners = (MinerConfig(**require_object("miners", m, MinerConfig)) for m in require_list("miners", d["miners"]))
        return cls(**{**d, "miners": tuple(miners)})


def standard_miners(
    n: int = 10,
    nonverifier_alpha: float | None = None,
    invalid_rate: float = 0.0,
) -> tuple:
    """The experiment lineup: optionally one non-verifier and one invalid
    producer; the remaining (verifying) miners split the residual power equally.

    The non-verifier counts towards n and the invalid producer (``punisher``)
    comes on top of it: ``standard_miners(10, a_s, 0.04)`` has 11 miners, the
    non-verifier and 9 verifiers besides the punisher.
    """
    entries = []
    residual = 1.0
    remaining = n
    if nonverifier_alpha is not None:
        entries.append(MinerConfig(id="skip", alpha=nonverifier_alpha, verifies=False))
        residual -= nonverifier_alpha
        remaining -= 1
    if invalid_rate > 0.0:
        entries.append(MinerConfig(id="punisher", alpha=invalid_rate, verifies=True, produces_invalid=True))
        residual -= invalid_rate
    if remaining < 1 or residual <= 0:
        raise ValueError("no room left for verifying miners")
    share = residual / remaining
    entries += [MinerConfig(id=f"v{i}", alpha=share) for i in range(remaining)]
    return tuple(entries)
