"""Gaussian mixture fitting on log-transformed positive data.

A mixture of K univariate normals is fitted to ln(values) with
expectation-maximisation; the component count is chosen by minimising the
Bayesian information criterion (BIC, Schwarz 1978) over a candidate range,
searched upwards from the smallest K and stopped once BIC has risen on two
fitted K in a row.  Each K in a search is the best of several EM runs from
k-means++ starts; a refit (``start``) is one EM run from a given mixture, so
a winner found on a subsample is carried to all rows without a new search.
Sampling returns exp(normal draw), i.e. values on the original positive
scale.

EM works component-major.  The E-step's log densities come from one
(k, 3) x (3, n) product into a reused (k, n) buffer; the max, the shift, the
exponential, the normalising sum and the division then run as k elementwise
passes over contiguous n-long rows instead of n reductions over k-long rows,
and the M-step's moments are one (k, n) x (n, 3) product.  The k-means++
seeding keeps a running minimum distance, and its nearest-centre loop breaks
ties to the lowest index as ``argmin`` does.
"""

import logging
from dataclasses import dataclass

import numpy as np

from verisim.fields import require_finite, require_integer, require_list, require_positive

VARIANCE_FLOOR = 1e-8
EM_TOL = 1e-6
EM_MAX_ITER = 200
EM_RESTARTS = 5

_LOG_2PI = float(np.log(2.0 * np.pi))

_log = logging.getLogger(__name__)


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
        require_integer("k", self.k)
        require_integer("n", self.n)
        for name in ("weights", "means", "variances"):
            if len(getattr(self, name)) != self.k:
                raise ValueError(f"{name} must have k={self.k} entries, got {len(getattr(self, name))}")
        for w, m, v in zip(self.weights, self.means, self.variances):
            require_finite("weights", w, 0)
            require_finite("means", m)
            require_positive("variances", v)
        for name in ("log_likelihood", "aic", "bic"):
            require_finite(name, getattr(self, name))
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {sum(self.weights)!r}")

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
        """Load a mixture from an object that has passed ``require_object``."""
        return cls(**{**d, **{name: tuple(require_list(name, d[name])) for name in ("weights", "means", "variances")}})


def _nearest(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the centre nearest to each x; ties go to the lowest index, as argmin's."""
    best = np.abs(x - centers[0])
    assign = np.zeros(x.size, dtype=np.intp)
    for j in range(1, centers.size):
        d = np.abs(x - centers[j])
        closer = d < best
        assign[closer] = j
        np.minimum(best, d, out=best)
    return assign


def _kmeans_seed(x: np.ndarray, k: int, rng: np.random.Generator):
    """k-means++ centre selection followed by a few Lloyd iterations."""
    n = x.size
    centers = np.empty(k)
    centers[0] = x[rng.integers(n)]
    d2 = (x - centers[0]) ** 2  # squared distance to the nearest chosen centre
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j:] = x[rng.integers(n, size=k - j)]
            break
        centers[j] = x[np.searchsorted(np.cumsum(d2), rng.random() * total)]
        np.minimum(d2, (x - centers[j]) ** 2, out=d2)
    for _ in range(8):
        assign = _nearest(x, centers)
        for j in range(k):
            sel = assign == j
            if np.any(sel):
                centers[j] = x[sel].mean()
    assign = _nearest(x, centers)
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


def _converged(prev: float, log_l: float) -> bool:
    return prev > -np.inf and log_l - prev < EM_TOL * (1.0 + abs(log_l))


def _em_once(x: np.ndarray, weights, means, variances, trace: list | None = None):
    """One EM run to convergence from the starting (weights, means, variances);
    returns (logL, weights, means, variances) or None.

    The per-component log density is linear in (1, x, x^2), so the E-step is a
    single (k, 3) x (3, n) matrix product.  Its first E-step scores the start
    itself.  A run that reaches EM_MAX_ITER stops after its E-step: the
    returned logL is that of the returned parameters.
    """
    n = x.size
    k = len(weights)
    basis = np.stack([np.ones(n), x, x * x])
    z = np.empty((k, n))
    m = np.empty(n)
    prev = -np.inf
    for it in range(1, EM_MAX_ITER + 1):
        inv2 = -0.5 / variances
        coeff = np.stack([
            np.log(weights) - 0.5 * (_LOG_2PI + np.log(variances)) + inv2 * means * means,
            -2.0 * inv2 * means,
            inv2,
        ], axis=1)
        np.matmul(coeff, basis, out=z)  # (k, n) log densities
        z.max(axis=0, out=m)
        z -= m
        np.exp(z, out=z)
        z_norm = z.sum(axis=0)
        log_l = float(np.sum(np.log(z_norm)) + m.sum())
        if not np.isfinite(log_l):
            return None
        # EM guarantees a non-decreasing likelihood; the tolerance absorbs
        # floating-point wobble from the variance floor
        assert log_l >= prev - 1e-6 * (1.0 + abs(prev)), "EM likelihood decreased"
        if trace is not None:
            trace.append(log_l)
        converged = _converged(prev, log_l)
        prev = log_l
        if converged or it == EM_MAX_ITER:
            break
        z /= z_norm  # responsibilities
        moments = z @ basis.T  # columns: [sum resp, sum resp*x, sum resp*x^2]
        nk = moments[:, 0]
        if np.any(nk <= 0) or not np.all(np.isfinite(nk)):
            return None
        weights = nk / n
        means = moments[:, 1] / nk
        variances = np.maximum(moments[:, 2] / nk - means * means, VARIANCE_FLOOR)
    return prev, weights, means, variances


def _capped(trace: list) -> bool:
    """Whether the EM run that left ``trace`` stopped at EM_MAX_ITER unconverged."""
    return len(trace) == EM_MAX_ITER and not _converged(trace[-2], trace[-1])


def _fit_k(x: np.ndarray, k: int, seed_seq: np.random.SeedSequence):
    """Best of EM_RESTARTS runs, and how many runs stopped at EM_MAX_ITER unconverged."""
    best = None
    capped = 0
    for child in seed_seq.spawn(EM_RESTARTS):
        trace = []
        result = _em_once(x, *_kmeans_seed(x, k, np.random.default_rng(child)), trace)
        capped += _capped(trace)
        if result is not None and (best is None or result[0] > best[0]):
            best = result
    return best, capped


def _as_model(fit, n: int) -> GmmModel:
    """The model of one EM result on n rows, components in order of their means."""
    log_l, weights, means, variances = fit
    params = 3 * weights.size - 1
    order = np.argsort(means)
    return GmmModel(
        k=weights.size,
        weights=tuple(float(w) for w in weights[order] / weights.sum()),
        means=tuple(float(m) for m in means[order]),
        variances=tuple(float(v) for v in variances[order]),
        log_likelihood=log_l,
        aic=float(2.0 * params - 2.0 * log_l),
        bic=float(params * np.log(n) - 2.0 * log_l),
        n=n,
    )


def fit_gmm(values, k_min: int = 1, k_max: int = 8, seed: int = 0, start: GmmModel | None = None) -> GmmModel:
    """Fit mixtures with K in [k_min, k_max] to ln(values); keep the lowest BIC.

    A mixture has 3K-1 free parameters, so BIC = (3K-1) ln n - 2 logL; the
    model also stores AIC = 2(3K-1) - 2 logL, which selects nothing.  K is
    searched upwards from k_min, and the search stops early once BIC has
    risen on two consecutive fitted K (each above the one before it); the
    best model seen so far is returned.  Each K is the best of EM_RESTARTS
    EM runs from k-means++ starts.  A K whose restarts all collapse is
    skipped: it neither counts as a rise nor resets the count.  Every K in
    the range is given its child seed up front, so a fitted K has the same
    bits whether or not the search reaches past it.

    With ``start``, a model of K = k_min = k_max components (typically the
    winner of a search on a subsample), the fit is one EM run on all values
    from ``start``'s parameters: no restarts, no k-means and no ``seed``.
    Its likelihood is at least that of ``start`` on the same values.

    Deterministic for a given seed.  Raises on empty/non-positive input, on
    constant data, when every candidate collapses and when the run from
    ``start`` does.  Logs (logger ``verisim.gmm``) each fitted K's BIC, the K
    at which the search stopped early, and a refit from ``start`` with its
    iterations and log-likelihood at INFO; at WARNING, each K with EM
    restarts that stopped at the EM_MAX_ITER cap unconverged, a refit from
    ``start`` that did, and a search (k_min < k_max) that selects k_max.
    """
    require_integer("k_min", k_min)
    require_integer("k_max", k_max)
    require_integer("seed", seed, 0)
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot fit a mixture to an empty sample")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise ValueError("all values must be positive and finite (fit uses ln of the data)")
    if not (1 <= k_min <= k_max <= values.size):
        raise ValueError(f"need 1 <= k_min <= k_max <= n, got [{k_min}, {k_max}] with n={values.size}")
    if start is not None and not start.k == k_min == k_max:
        raise ValueError(f"start must have k == k_min == k_max, got k={start.k} for [{k_min}, {k_max}]")

    x = np.log(values)
    if float(np.var(x)) == 0.0:
        raise DegenerateDataError("constant data: mixture variance would be zero")

    n = x.size
    if start is not None:
        trace = []
        fit = _em_once(x, *(np.asarray(v) for v in (start.weights, start.means, start.variances)), trace)
        if fit is None:
            raise DegenerateDataError(f"start: the EM run from its K={start.k} parameters collapsed on these data")
        model = _as_model(fit, n)
        _log.info("K=%d: refit from start in %d EM iterations, log-likelihood %.10g",
                  model.k, len(trace), model.log_likelihood)
        if _capped(trace):
            _log.warning("K=%d: the EM refit from start stopped at the %d-iteration cap unconverged",
                         model.k, EM_MAX_ITER)
        return model

    root = np.random.SeedSequence(seed)
    candidates = list(range(k_min, k_max + 1))
    best_model = None
    prev_bic = np.inf
    rises = 0
    for k, child in zip(candidates, root.spawn(len(candidates))):
        fit, capped = _fit_k(x, k, child)
        if capped:
            _log.warning(
                "K=%d: %d of %d EM restarts stopped at the %d-iteration cap unconverged",
                k, capped, EM_RESTARTS, EM_MAX_ITER,
            )
        if fit is None:
            continue
        model = _as_model(fit, n)
        _log.info("K=%d: BIC %.10g", k, model.bic)
        rises = rises + 1 if model.bic > prev_bic else 0
        prev_bic = model.bic
        if best_model is None or model.bic < best_model.bic:
            best_model = model
        if rises == 2 and k < k_max:
            _log.info("stopped the K search at K=%d: BIC rose on two K in a row", k)
            break
    if best_model is None:
        raise DegenerateDataError("every candidate mixture collapsed; data cannot be fitted")
    if k_min < k_max and best_model.k == k_max:
        _log.warning("selected K=%d is the top of the search range [%d, %d]", k_max, k_min, k_max)
    return best_model


def sample_gmm_with(
    model: GmmModel,
    n: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    normals: np.ndarray | None = None,
) -> np.ndarray:
    """Draw n positive values: pick a component by weight, draw the normal, exponentiate.

    A one-component model draws no component: its values, and the
    generator's state after them, are those of
    ``np.exp(rng.normal(mean, sd, n))``.  For K > 1 they are those of
    ``rng.choice(k, size=n, p=weights)`` then ``rng.normal(means[c], sds[c])``,
    made without those calls' per-call overhead.  The component of a uniform
    u is the number of CDF edges at or below it, counted edge by edge: the
    ``searchsorted(cdf, u, side="right")`` of ``choice``, without its binary
    search.  So ``rng`` gives n uniforms (none when K = 1), then n standard
    normals.

    ``normals``, if given, is a float64 array of the n standard normals that
    ``rng`` would give after its uniforms, drawn beforehand from a copy of
    ``rng`` jumped past them (``bit_generator.advance(n)`` on a PCG64 when
    K > 1; no jump when K = 1).  Then only the uniforms are drawn here, and
    the values have the same bits; ``rng`` is left n normals short.

    The draws land in ``out`` (a float64 array of n, fresh if None), which is
    returned.  The normal is scaled, shifted and exponentiated there in
    place: ``z *= sd; z += mean`` gives the bits of ``mean + sd * z``.
    """
    if out is None:
        out = np.empty(n)
    means = np.asarray(model.means)
    sds = np.sqrt(np.asarray(model.variances))
    comps = 0  # a one-component model's every draw
    if model.k > 1:
        cdf = np.cumsum(model.weights)
        cdf /= cdf[-1]
        u = rng.random(n, out=out)
        comps = np.zeros(n, dtype=np.intp)
        for edge in cdf[:-1]:
            comps += u >= edge
    if normals is None:
        z = rng.standard_normal(n, out=out)
        z *= sds.take(comps)
    else:
        z = np.multiply(normals, sds.take(comps), out=out)
    z += means.take(comps)
    return np.exp(z, out=z)
