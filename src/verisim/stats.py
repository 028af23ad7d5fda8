"""Regression quality metrics."""

import numpy as np


def _as_pair(xs, ys, min_len: int = 2):
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError("inputs must be one-dimensional")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < min_len:
        raise ValueError(f"need at least {min_len} samples, got {x.size}")
    return x, y


def regression_metrics(y_true, y_pred) -> dict:
    """MAE, RMSE and the coefficient of determination.

    R^2 is defined as 0 when the true values are constant (the strict formula
    is undefined there).
    """
    yt, yp = _as_pair(y_true, y_pred)
    err = yt - yp
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    ss_tot = float(np.sum((yt - yt.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 0.0
    else:
        r2 = 1.0 - float(np.sum(err * err)) / ss_tot
    return {"mae": mae, "rmse": rmse, "r2": r2}

