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


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """The coefficient of determination of two float arrays.

    Defined as 0 where the strict formula is undefined: for constant true
    values and for fewer than 2 samples (a leave-one-out fold).
    """
    if y_true.size < 2:
        return 0.0
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    err = y_true - y_pred
    return 1.0 - float(np.sum(err * err)) / ss_tot


def regression_metrics(y_true, y_pred) -> dict:
    """MAE, RMSE and the coefficient of determination (:func:`r2`) of at least 2 samples."""
    yt, yp = _as_pair(y_true, y_pred)
    err = yt - yp
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err * err)))
    return {"mae": mae, "rmse": rmse, "r2": r2(yt, yp)}

