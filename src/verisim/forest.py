"""Bootstrapped regression trees on a single feature, with per-tree split budgets.

Each tree is grown greedily best-first: the leaf whose best split yields the
largest variance reduction is split next, until the split budget is spent or
no split helps.  Trees are trained on multinomial bootstrap weights over the
x-sorted sample, so the sort happens once per dataset instead of once per
tree.  A forest prediction is the arithmetic mean of its tree predictions.
"""

import heapq
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from verisim import kernels

DEFAULT_D_GRID = (10, 50, 100, 200, 500)
DEFAULT_S_GRID = (1, 10, 50, 150, 300)

# integer used gas below this bound maps to its prediction step by table lookup
TABLE_SIZE = 1 << 20


def _fold_r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    # R^2 with the constant-target convention 0, extended to single-sample
    # folds (leave-one-out) where the strict formula is undefined
    if y_true.size < 2:
        return 0.0
    ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
    if ss_tot == 0.0:
        return 0.0
    return 1.0 - float(np.sum((y_true - y_pred) ** 2)) / ss_tot


@dataclass
class RegressionTree:
    """Array-encoded binary tree: node i is a leaf iff left[i] < 0."""

    thresholds: np.ndarray
    left: np.ndarray
    right: np.ndarray
    values: np.ndarray

    def predict_one(self, x: float) -> float:
        i = 0
        while self.left[i] >= 0:
            i = self.left[i] if x <= self.thresholds[i] else self.right[i]
        return float(self.values[i])

    @property
    def split_count(self) -> int:
        return int(np.count_nonzero(self.left >= 0))

    def as_step_function(self):
        """(bounds, leaf_values): value j applies for bounds[j-1] < x <= bounds[j]."""
        bounds, leaf_values = [], []
        stack = [(0, False)]
        while stack:
            i, emit_threshold = stack.pop()
            if emit_threshold:
                bounds.append(float(self.thresholds[i]))
                continue
            if self.left[i] < 0:
                leaf_values.append(float(self.values[i]))
            else:
                # in-order: left subtree, this threshold, right subtree
                stack.append((self.right[i], False))
                stack.append((i, True))
                stack.append((self.left[i], False))
        return np.asarray(bounds), np.asarray(leaf_values)

    def to_dict(self) -> dict:
        return {
            "thresholds": self.thresholds.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        """Load a tree, rejecting any that could crash, loop or mispredict on use."""
        arrays = {}
        columns = (("thresholds", np.float64), ("left", np.int64), ("right", np.int64), ("values", np.float64))
        for name, dtype in columns:
            raw = np.asarray(d[name])
            if raw.ndim != 1 or raw.size == 0:
                raise ValueError(f"{name} must be a non-empty list, got shape {raw.shape}")
            if dtype is np.int64 and raw.dtype.kind not in "iu":
                raise ValueError(f"{name} must hold integer node indices, got dtype {raw.dtype}")
            arrays[name] = raw.astype(dtype)
            if not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"{name} must be finite")
        n = arrays["thresholds"].size
        if any(a.size != n for a in arrays.values()):
            sizes = [a.size for a in arrays.values()]
            raise ValueError(f"thresholds, left, right and values must have equal lengths, got {sizes}")
        # children after their parent make every walk finite: no cycles
        left, right, node = arrays["left"], arrays["right"], np.arange(n)
        leaf = (left == -1) & (right == -1)
        internal = (left > node) & (right > node) & (left < n) & (right < n)
        bad = np.flatnonzero(~(leaf | internal))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"left/right: node {i} has children ({left[i]}, {right[i]}); "
                f"an internal node's children must both lie in ({i}, {n}); a leaf's are both -1"
            )
        return cls(**arrays)


@dataclass
class ForestModel:
    """Ensemble of regression trees; prediction is the mean of the tree outputs.

    The trees are merged once into one step function (``_bounds``,
    ``_values``) and a prediction is a binary search over its bounds.  Integer
    used gas in [0, TABLE_SIZE) instead reads its step from ``_table``, a
    dense index over those integers built on first use: ``_table[g]`` is the
    number of bounds below ``g``, exactly what the search returns.  It holds
    2**20 entries of the narrowest unsigned type that counts the bounds, 2 MB
    while the forest has fewer than 65,536 of them.
    """

    tree_count: int
    split_budget: int
    trees: list
    _bounds: np.ndarray = field(default=None, repr=False, compare=False)
    _values: np.ndarray = field(default=None, repr=False, compare=False)
    _table: np.ndarray = field(default=None, repr=False, compare=False)

    def _ensure_merged(self):
        # the mean of step functions of one variable is itself a step function;
        # merging once makes batch prediction a single searchsorted
        if self._bounds is not None:
            return
        per_tree = [t.as_step_function() for t in self.trees]
        if per_tree:
            merged = np.unique(np.concatenate([b for b, _ in per_tree]))
        else:
            merged = np.asarray([])
        reps = np.append(merged, np.inf)
        acc = np.zeros(reps.size)
        for bounds, leaf_values in per_tree:
            acc += leaf_values[np.searchsorted(bounds, reps, side="left")]
        self._bounds = merged
        self._values = acc / max(len(self.trees), 1)

    def _ensure_table(self):
        # run lengths of each step over the integers, not a float grid: the
        # table is the only large array built
        if self._table is not None:
            return
        m = self._bounds.size
        starts = np.clip(np.floor(self._bounds) + 1, 0, TABLE_SIZE).astype(np.int64)
        counts = np.diff(starts, prepend=0, append=TABLE_SIZE)
        self._table = np.repeat(np.arange(m + 1, dtype=np.min_scalar_type(m)), counts)

    def predict(self, used_gas) -> np.ndarray:
        self._ensure_merged()
        x = np.asarray(used_gas)
        if x.ndim == 0 or x.dtype.kind not in "iu":
            x = np.asarray(x, dtype=np.float64)
            return self._values[np.searchsorted(self._bounds, x, side="left")]
        self._ensure_table()
        steps = self._table.take(x, mode="clip")
        outside = (x < 0) | (x >= TABLE_SIZE)
        if outside.any():
            steps[outside] = np.searchsorted(self._bounds, x[outside].astype(np.float64), side="left")
        return self._values.take(steps)

    def to_dict(self) -> dict:
        return {
            "tree_count": self.tree_count,
            "split_budget": self.split_budget,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForestModel":
        return cls(
            tree_count=int(d["tree_count"]),
            split_budget=int(d["split_budget"]),
            trees=[RegressionTree.from_dict(t) for t in d["trees"]],
        )


def _weighted_mean(y, w, lo, hi):
    ws = w[lo:hi]
    total = ws.sum()
    if total <= 0:
        return float(y[lo:hi].mean())
    return float(np.dot(y[lo:hi], ws) / total)


def _grow_tree(x_sorted, y_sorted, weights, split_budget) -> RegressionTree:
    thresholds = [0.0]
    left = [-1]
    right = [-1]
    values = [_weighted_mean(y_sorted, weights, 0, x_sorted.size)]

    # candidate heap: (-gain, tie counter, node, lo, hi, split position)
    heap = []
    counter = 0
    pos, gain = kernels.best_split(x_sorted, y_sorted, weights, 0, x_sorted.size)
    if pos >= 0:
        heap.append((-gain, counter, 0, 0, x_sorted.size, pos))
        counter += 1
    splits = 0
    while heap and splits < split_budget:
        _, _, node, lo, hi, pos = heapq.heappop(heap)
        threshold = 0.5 * (x_sorted[pos - 1] + x_sorted[pos])
        for seg_lo, seg_hi in ((lo, pos), (pos, hi)):
            thresholds.append(0.0)
            left.append(-1)
            right.append(-1)
            values.append(_weighted_mean(y_sorted, weights, seg_lo, seg_hi))
        li, ri = len(values) - 2, len(values) - 1
        thresholds[node] = threshold
        left[node] = li
        right[node] = ri
        splits += 1
        for child, seg_lo, seg_hi in ((li, lo, pos), (ri, pos, hi)):
            cpos, cgain = kernels.best_split(x_sorted, y_sorted, weights, seg_lo, seg_hi)
            if cpos >= 0:
                heapq.heappush(heap, (-cgain, counter, child, seg_lo, seg_hi, cpos))
                counter += 1
    return RegressionTree(
        thresholds=np.asarray(thresholds, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
    )


def fit_forest(xs, ys, tree_count: int, split_budget: int, seed=0) -> ForestModel:
    """Fit a forest of `tree_count` trees, each on a bootstrap resample."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("xs and ys must be equally sized and non-empty")
    if tree_count < 1 or split_budget < 1:
        raise ValueError("tree count and split budget must be positive")
    order = np.argsort(x, kind="stable")
    return _fit_forest_sorted(x[order], y[order], tree_count, split_budget, np.random.SeedSequence(seed))


def _fit_forest_sorted(x_sorted, y_sorted, tree_count, split_budget, seed_seq) -> ForestModel:
    n = x_sorted.size
    prob = np.full(n, 1.0 / n)
    trees = []
    for child in seed_seq.spawn(tree_count):
        rng = np.random.default_rng(child)
        weights = rng.multinomial(n, prob).astype(np.float64)
        trees.append(_grow_tree(x_sorted, y_sorted, weights, split_budget))
    return ForestModel(tree_count=tree_count, split_budget=split_budget, trees=trees)


def fit_rfr(xs, ys, d_grid=DEFAULT_D_GRID, s_grid=DEFAULT_S_GRID, folds: int = 10, seed: int = 0) -> tuple:
    """Grid search over (tree count, split budget) with K-fold CV.

    Returns the winning ``(tree_count, split_budget)``; grow the forest with
    :func:`fit_forest`.  Every (d, s) cell is scored by its mean
    cross-validated R^2, and the best cell wins (ties: earliest in grid
    order).  A one-cell grid is returned as is, once the inputs have passed
    the checks.  Deterministic for a given seed; fold and tree seeds are
    pre-spawned per cell so cells could be evaluated concurrently without
    changing the result.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("xs and ys must be equally sized")
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if x.size < folds:
        raise ValueError(f"need at least as many samples ({x.size}) as folds ({folds})")
    d_grid = [int(d) for d in d_grid]
    s_grid = [int(s) for s in s_grid]
    if not d_grid or not s_grid or min(d_grid) < 1 or min(s_grid) < 1:
        raise ValueError("grids must be non-empty with positive entries")
    cells = list(product(d_grid, s_grid))
    if len(cells) == 1:
        return cells[0]

    # child 1 is left unused: skipping it keeps every cell's fold seeds, so a
    # seed still picks the cell it picked when the search also grew the forest
    perm_ss, _, *cell_ss = np.random.SeedSequence(seed).spawn(2 + len(cells) * folds)
    perm = np.random.default_rng(perm_ss).permutation(x.size)
    fold_idx = np.array_split(perm, folds)

    fold_train = []
    for f in range(folds):
        tr = np.concatenate([fold_idx[g] for g in range(folds) if g != f])
        order = np.argsort(x[tr], kind="stable")
        fold_train.append((x[tr][order], y[tr][order]))

    best_cell = None
    best_score = -np.inf
    for ci, (d, s) in enumerate(cells):
        scores = []
        for f in range(folds):
            xt, yt = fold_train[f]
            model = _fit_forest_sorted(xt, yt, d, s, cell_ss[ci * folds + f])
            te = fold_idx[f]
            scores.append(_fold_r2(y[te], model.predict(x[te])))
        mean_r2 = float(np.mean(scores))
        if mean_r2 > best_score:
            best_score = mean_r2
            best_cell = (d, s)
    return best_cell
