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
        if not isinstance(self.id, str):
            raise ValueError(f"id must be a string, got {self.id!r}")
        # a JSON "false" string is truthy: flags must be real bools
        for name in ("verifies", "produces_invalid"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r} (miner {self.id})")
        _require_finite(f"alpha (miner {self.id})", self.alpha)
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"miner {self.id}: alpha must lie in (0, 1]")
        if self.processors is not None:
            _require_integer(f"processors (miner {self.id})", self.processors)
        if self.produces_invalid and not self.verifies:
            raise ValueError(f"miner {self.id}: the invalid-block producer must verify")


def _require_finite(name: str, value):
    # NaN fails every comparison and inf never ends a run: test both explicitly
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _require_positive_finite(name: str, value):
    _require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _require_integer(name: str, value, minimum: int = 1):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
        _require_integer("block_limit", self.block_limit, 21_000)
        _require_positive_finite("t_b", self.t_b)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        _require_finite("c", self.c)
        if not 0.0 <= self.c <= 1.0:
            raise ValueError(f"c (the conflict rate) must lie in [0, 1], got {self.c!r}")
        _require_integer("p", self.p)
        _require_finite("invalid_rate", self.invalid_rate)
        if not 0.0 <= self.invalid_rate < 0.5:
            raise ValueError(f"invalid_rate must lie in [0, 0.5), got {self.invalid_rate!r}")
        _require_positive_finite("sim_duration", self.sim_duration)
        _require_integer("runs", self.runs)
        _require_integer("base_seed", self.base_seed, 0)
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
        if not isinstance(d, dict):
            raise ValueError(f"a configuration must be an object, got {d!r}")
        allowed = {f.name for f in fields(cls)}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        if "block_limit" not in d or "miners" not in d:
            raise ValueError("configuration requires 'block_limit' and 'miners'")
        if not isinstance(d["miners"], list) or not all(isinstance(m, dict) for m in d["miners"]):
            raise ValueError(f"miners must be a list of objects, got {d['miners']!r}")
        miner_allowed = {f.name for f in fields(MinerConfig)}
        miners = []
        for m in d["miners"]:
            bad = set(m) - miner_allowed
            if bad:
                raise ValueError(f"unknown miner keys: {sorted(bad)}")
            if "id" not in m or "alpha" not in m:
                raise ValueError(f"miners must each have an 'id' and an 'alpha', got keys {sorted(m)}")
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
