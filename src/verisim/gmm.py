"""Gaussian mixture fitting on log-transformed positive data.

A mixture of K univariate normals is fitted to ln(values) with
expectation-maximisation; the component count is chosen by minimising an
information criterion over a candidate range.  Sampling returns
exp(normal draw), i.e. values on the original positive scale.
"""

import math
from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-8
EM_TOL = 1e-6
EM_MAX_ITER = 200
EM_RESTARTS = 5

_LOG_2PI = float(np.log(2.0 * np.pi))


class DegenerateDataError(ValueError):
    """Raised when the data cannot support a mixture fit (e.g. zero variance)."""


@dataclass(frozen=True)
class GmmModel:
    """K-component normal mixture over the natural log of the data."""

    k: int
    weights: tuple
    means: tuple
    variances: tuple
    log_likelihood: float
    aic: float
    bic: float
    n: int

    def __post_init__(self):
        # NaN passes every comparison below: check finiteness first
        for name in ("weights", "means", "variances"):
            values = getattr(self, name)
            if len(values) != self.k:
                raise ValueError(f"{name} must have k={self.k} entries, got {len(values)}")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {values!r}")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if any(w < 0 for w in self.weights):
            raise ValueError("component weights must be non-negative")
        if any(v <= 0 for v in self.variances):
            raise ValueError("component variances must be positive")

    @property
    def free_parameters(self) -> int:
        return 3 * self.k - 1

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "weights": list(self.weights),
            "means": list(self.means),
            "variances": list(self.variances),
            "log_likelihood": self.log_likelihood,
            "aic": self.aic,
            "bic": self.bic,
            "n": self.n,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GmmModel":
        return cls(
            k=int(d["k"]),
            weights=tuple(float(w) for w in d["weights"]),
            means=tuple(float(m) for m in d["means"]),
            variances=tuple(float(v) for v in d["variances"]),
            log_likelihood=float(d["log_likelihood"]),
            aic=float(d["aic"]),
            bic=float(d["bic"]),
            n=int(d["n"]),
        )


def _kmeans_seed(x: np.ndarray, k: int, rng: np.random.Generator):
    """k-means++ centre selection followed by a few Lloyd iterations."""
    n = x.size
    centers = np.empty(k)
    centers[0] = x[rng.integers(n)]
    for j in range(1, k):
        d2 = np.min((x[:, None] - centers[None, :j]) ** 2, axis=1)
        total = d2.sum()
        if total <= 0.0:
            centers[j:] = x[rng.integers(n, size=k - j)]
            break
        centers[j] = x[np.searchsorted(np.cumsum(d2), rng.random() * total)]
    for _ in range(8):
        assign = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
        for j in range(k):
            sel = assign == j
            if np.any(sel):
                centers[j] = x[sel].mean()
    assign = np.argmin(np.abs(x[:, None] - centers[None, :]), axis=1)
    weights = np.empty(k)
    means = np.empty(k)
    variances = np.empty(k)
    overall_var = max(float(np.var(x)), VARIANCE_FLOOR)
    for j in range(k):
        sel = assign == j
        cnt = int(np.count_nonzero(sel))
        weights[j] = max(cnt, 1) / n
        means[j] = x[sel].mean() if cnt else centers[j]
        variances[j] = max(float(np.var(x[sel])) if cnt else overall_var, VARIANCE_FLOOR)
    weights /= weights.sum()
    return weights, means, variances


def _em_once(x: np.ndarray, k: int, rng: np.random.Generator, trace: list | None = None):
    """One EM run to convergence; returns (logL, weights, means, variances) or None.

    The per-component log density is linear in (1, x, x^2), so the E-step is a
    single (n, 3) x (3, k) matrix product.
    """
    n = x.size
    weights, means, variances = _kmeans_seed(x, k, rng)
    basis = np.empty((n, 3))
    basis[:, 0] = 1.0
    basis[:, 1] = x
    basis[:, 2] = x * x
    prev = -np.inf
    for _ in range(EM_MAX_ITER):
        inv2 = -0.5 / variances
        coeff = np.empty((3, k))
        coeff[0] = np.log(weights) - 0.5 * (_LOG_2PI + np.log(variances)) + inv2 * means * means
        coeff[1] = -2.0 * inv2 * means
        coeff[2] = inv2
        lp = basis @ coeff
        m = lp.max(axis=1)
        z = np.exp(lp - m[:, None])
        z_norm = z.sum(axis=1)
        log_l = float(np.sum(np.log(z_norm)) + m.sum())
        if not np.isfinite(log_l):
            return None
        # EM guarantees a non-decreasing likelihood; the tolerance absorbs
        # floating-point wobble from the variance floor
        assert log_l >= prev - 1e-6 * (1.0 + abs(prev)), "EM likelihood decreased"
        if trace is not None:
            trace.append(log_l)
        if prev > -np.inf and log_l - prev < EM_TOL * (1.0 + abs(log_l)):
            prev = log_l
            break
        prev = log_l
        resp = z / z_norm[:, None]
        moments = resp.T @ basis  # rows: [sum resp, sum resp*x, sum resp*x^2]
        nk = moments[:, 0]
        if np.any(nk <= 0) or not np.all(np.isfinite(nk)):
            return None
        weights = nk / n
        means = moments[:, 1] / nk
        variances = np.maximum(moments[:, 2] / nk - means * means, VARIANCE_FLOOR)
    return prev, weights, means, variances


def _fit_k(x: np.ndarray, k: int, seed_seq: np.random.SeedSequence):
    best = None
    for child in seed_seq.spawn(EM_RESTARTS):
        result = _em_once(x, k, np.random.default_rng(child))
        if result is not None and (best is None or result[0] > best[0]):
            best = result
    return best


def fit_gmm(values, k_min: int = 1, k_max: int = 8, criterion: str = "bic", seed: int = 0) -> GmmModel:
    """Fit mixtures with K in [k_min, k_max] to ln(values); keep the best by criterion.

    The information criteria use 3K-1 free parameters per mixture:
    AIC = 2(3K-1) - 2 logL, BIC = (3K-1) ln n - 2 logL.  Deterministic for a
    given seed.  Raises on empty/non-positive input, on constant data, and
    when every candidate collapses.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot fit a mixture to an empty sample")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise ValueError("all values must be positive and finite (fit uses ln of the data)")
    if not (1 <= k_min <= k_max <= values.size):
        raise ValueError(f"need 1 <= k_min <= k_max <= n, got [{k_min}, {k_max}] with n={values.size}")
    criterion = criterion.lower()
    if criterion not in ("aic", "bic"):
        raise ValueError(f"criterion must be 'aic' or 'bic', got {criterion!r}")

    x = np.log(values)
    if float(np.var(x)) == 0.0:
        raise DegenerateDataError("constant data: mixture variance would be zero")

    n = x.size
    root = np.random.SeedSequence(seed)
    candidates = list(range(k_min, k_max + 1))
    best_model = None
    best_score = np.inf
    for k, child in zip(candidates, root.spawn(len(candidates))):
        fit = _fit_k(x, k, child)
        if fit is None:
            continue
        log_l, weights, means, variances = fit
        params = 3 * k - 1
        aic = 2.0 * params - 2.0 * log_l
        bic = params * np.log(n) - 2.0 * log_l
        score = bic if criterion == "bic" else aic
        if score < best_score:
            best_score = score
            order = np.argsort(means)
            best_model = GmmModel(
                k=k,
                weights=tuple(float(w) for w in weights[order] / weights.sum()),
                means=tuple(float(m) for m in means[order]),
                variances=tuple(float(v) for v in variances[order]),
                log_likelihood=log_l,
                aic=float(aic),
                bic=float(bic),
                n=n,
            )
    if best_model is None:
        raise DegenerateDataError("every candidate mixture collapsed; data cannot be fitted")
    return best_model


def sample_gmm_with(model: GmmModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n positive values: pick a component by weight, draw the normal, exponentiate.

    The draws, and the generator's state after them, are those of
    ``rng.choice(k, size=n, p=weights)`` then ``rng.normal(means[c], sds[c])``,
    made without those calls' per-call overhead.
    """
    cdf = np.cumsum(model.weights)
    cdf /= cdf[-1]
    comps = np.searchsorted(cdf, rng.random(n), side="right")
    means = np.asarray(model.means)
    sds = np.sqrt(np.asarray(model.variances))
    return np.exp(means[comps] + sds[comps] * rng.standard_normal(n))
