"""Golden closed-form outputs: ``reward_table`` and ``closed_form_gain`` must
reproduce them bit for bit.

The recorded file holds the ``repr`` of every ``reward_table`` row over a grid
of lineups, verification times, block intervals and (mode, c, p) cases, and of
``closed_form_gain`` on sequential and parallel scenario configurations.  A
refactor of the closed form that keeps its arithmetic leaves every entry
unchanged.  Re-record only when the arithmetic changes on purpose::

    PYTHONPATH=src python -m tests.test_closed_form_golden
"""

import json
import pathlib

import pytest

from verisim.analytics import PowerProfile, VerificationParams, reward_table
from verisim.config import ScenarioConfig, standard_miners
from verisim.scenario import closed_form_gain

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "closed_form_golden.json"

LINEUPS = {
    "uniform10-skip0.1": lambda: PowerProfile(standard_miners(10, 0.1)),
    "uniform10-skip0.05": lambda: PowerProfile(standard_miners(10, 0.05)),
    "uniform6-all-verify": lambda: PowerProfile(standard_miners(6)),
    "uniform4-skip0.3": lambda: PowerProfile(standard_miners(4, 0.3)),
    "two-skippers": lambda: PowerProfile.make(
        [("s1", 0.1, False), ("v1", 0.25, True), ("s2", 0.15, False), ("v2", 0.5, True)]
    ),
    "no-verifier": lambda: PowerProfile.make([("s1", 0.4, False), ("s2", 0.6, False)]),
}
T_VS = (0.0, 0.23, 3.18, 17.3)
T_BS = (12.0, 12.42)
# (mode, c, p): sequential ignores c and p; parallel at p=1 is sequential
CASES = (
    ("sequential", 0.0, 1),
    ("sequential", 0.4, 4),
    ("parallel", 0.0, 1),
    ("parallel", 0.4, 1),
    ("parallel", 0.4, 4),
    ("parallel", 1.0, 16),
    ("parallel", 0.0, 64),
)

CONFIGS = {
    "seq-10": dict(miners=standard_miners(10, 0.1)),
    "seq-10-p4": dict(miners=standard_miners(10, 0.1), c=0.4, p=4),
    "seq-10-invalid": dict(miners=standard_miners(10, 0.1, invalid_rate=0.05), invalid_rate=0.05),
    "par-10": dict(miners=standard_miners(10, 0.1), mode="parallel", c=0.4, p=4),
    "seq-100": dict(miners=standard_miners(100, 0.01)),
    "par-100": dict(miners=standard_miners(100, 0.05), mode="parallel", c=0.1, p=16),
    "seq-10-all-verify": dict(miners=standard_miners(10)),
}
CONFIG_T_VS = (0.23, 3.18)
CONFIG_T_BS = (12.0, 12.42)


def _rows(rows) -> str:
    return repr([(r.id, r.alpha, r.verifies, r.expected_fraction, r.relative_gain_pct) for r in rows])


def _entries() -> dict:
    out = {}
    for name, make in LINEUPS.items():
        lineup = make()
        for t_v in T_VS:
            for t_b in T_BS:
                for mode, c, p in CASES:
                    params = VerificationParams(t_v=t_v, t_b=t_b, c=c, p=p)
                    out[f"table/{name}/tv{t_v}/tb{t_b}/{mode}-c{c}-p{p}"] = _rows(reward_table(lineup, params, mode=mode))
    for name, kw in CONFIGS.items():
        for t_b in CONFIG_T_BS:
            config = ScenarioConfig(block_limit=8_000_000, t_b=t_b, **kw)
            for t_v in CONFIG_T_VS:
                out[f"gain/{name}/tv{t_v}/tb{t_b}"] = repr(closed_form_gain(config, t_v))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def entries():
    return _entries()


def test_same_keys(golden, entries):
    assert sorted(entries) == sorted(golden)


@pytest.mark.parametrize("prefix", [*(f"table/{name}/" for name in LINEUPS), "gain/"])
def test_matches_golden(prefix, golden, entries):
    keys = [key for key in sorted(golden) if key.startswith(prefix)]
    assert keys
    for key in keys:
        assert entries[key] == golden[key], key


def test_no_nonverifier_has_no_gain(golden):
    assert golden["gain/seq-10-all-verify/tv3.18/tb12.42"] == "None"


def record():
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(_entries(), indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
