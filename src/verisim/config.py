"""Scenario configuration: miner lineup and run parameters, with strict JSON I/O."""

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

MODES = ("sequential", "parallel")


@dataclass(frozen=True)
class MinerConfig:
    id: str
    alpha: float
    verifies: bool = True
    processors: int | None = None  # None: use the scenario-wide processor count
    produces_invalid: bool = False

    def __post_init__(self):
        # a JSON "false" string is truthy: flags must be real bools
        for name in ("verifies", "produces_invalid"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r} (miner {self.id})")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real) or not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite number, got {self.alpha!r} (miner {self.id})")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"miner {self.id}: alpha must lie in (0, 1]")
        if self.processors is not None:
            _require_count(f"processors (miner {self.id})", self.processors)
        if self.produces_invalid and not self.verifies:
            raise ValueError(f"miner {self.id}: the invalid-block producer must verify")


def _require_positive_finite(name: str, value):
    # NaN fails every comparison and inf never ends a run: test both explicitly
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _require_count(name: str, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


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
        if self.block_limit < 21_000:
            raise ValueError("block limit below the minimum transaction gas")
        _require_positive_finite("t_b", self.t_b)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 <= self.c <= 1.0:
            raise ValueError("conflict rate must lie in [0, 1]")
        _require_count("p", self.p)
        if not 0.0 <= self.invalid_rate < 0.5:
            raise ValueError("invalid-block rate must lie in [0, 0.5)")
        _require_positive_finite("sim_duration", self.sim_duration)
        _require_count("runs", self.runs)
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

    def processors_for(self, miner: MinerConfig) -> int:
        return self.p if miner.processors is None else miner.processors

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, base_seed=int(seed))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["miners"] = [asdict(m) for m in self.miners]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        allowed = {f.name for f in fields(cls)}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        if "block_limit" not in d or "miners" not in d:
            raise ValueError("configuration requires 'block_limit' and 'miners'")
        miner_allowed = {f.name for f in fields(MinerConfig)}
        miners = []
        for m in d["miners"]:
            bad = set(m) - miner_allowed
            if bad:
                raise ValueError(f"unknown miner keys: {sorted(bad)}")
            miners.append(MinerConfig(**m))
        rest = {k: v for k, v in d.items() if k != "miners"}
        return cls(miners=tuple(miners), **rest)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")


def standard_miners(
    n: int = 10,
    nonverifier_alpha: float | None = None,
    invalid_rate: float = 0.0,
) -> tuple:
    """The experiment lineup: optionally one non-verifier and one invalid
    producer; the remaining (verifying) miners split the residual power equally."""
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
