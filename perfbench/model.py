"""The fixed fitted-model input of the sweep workloads.

The sweeps read one model fitted by ``default_workload()`` at seed 7, so the
31 s fit stays out of their set-up time and a change to the fit does not move
sweep numbers.  Regenerate it (after a deliberate change to the reference
recipe or the synthetic generator) with:

    python3 perfbench/model.py
"""

import pathlib
import sys

import numpy as np

MODEL_PATH = pathlib.Path(__file__).resolve().parent / "data" / "default_workload_seed7.json"
MODEL_SEED = 7
# the criterion-5 measurement: 1200 fresh 8M blocks at seed 11
CALIBRATION_LIMIT = 8_000_000
CALIBRATION_BLOCKS = 1200
CALIBRATION_SEED = 11
CALIBRATION_WINDOW = (0.21, 0.25)  # acceptance criterion 5, seconds

REGENERATE = "python3 perfbench/model.py"


class StaleModelError(RuntimeError):
    """The stored model no longer reproduces the 8M calibration."""


def calibration_tv(fitted) -> float:
    """Mean sequential verification time of fresh 8M blocks built from ``fitted``."""
    from verisim import blocks

    times = blocks.measure_verification_times(fitted, CALIBRATION_LIMIT, CALIBRATION_BLOCKS, seed=CALIBRATION_SEED)
    return float(np.mean(times))


def check_calibration(mean_tv: float) -> list:
    lo, hi = CALIBRATION_WINDOW
    if not lo <= mean_tv <= hi:
        return [f"mean t_v at 8M is {mean_tv:.4f} s, outside [{lo}, {hi}]"]
    return []


def load_checked(path=MODEL_PATH):
    """Load the stored model through the public loader; raise if it has gone stale."""
    from verisim import workload

    fitted = workload.FittedWorkload.load(path)
    failures = check_calibration(calibration_tv(fitted))
    if failures:
        raise StaleModelError(f"{path}: {failures[0]}; regenerate it with: {REGENERATE}")
    return fitted


def main():
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    from verisim.dataio import default_workload

    MODEL_PATH.parent.mkdir(exist_ok=True)
    default_workload(seed=MODEL_SEED).save(MODEL_PATH)
    print(f"wrote {MODEL_PATH}")


if __name__ == "__main__":
    main()
