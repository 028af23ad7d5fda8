"""Bootstrapped regression trees on a single feature, with per-tree split budgets.

Each tree is grown greedily best-first: the leaf whose best split yields the
largest variance reduction is split next, until the split budget is spent or
no split helps.  Each tree is trained on bootstrap weights over the x-sorted
sample: how often each row is among n uniform draws of a row index, counted
by ``bincount`` (the multinomial law, without a per-row probability array).
The sort happens once per dataset instead of once per tree.  A forest
prediction is the arithmetic mean of its tree predictions.

A tree scans only its rows of positive bootstrap weight, about 63 % of them:
a zero-weight row adds nothing to any sum, so the best split is the same.
It takes those rows' cumulative weights and weighted y once, into one buffer
set allocated per forest.  A split node's left child starts where the node
does, so its sums are the node's prefix and stay in place.  The right
child's cumulative weights are the node's minus the left total, exact
because every bootstrap count and sum of counts is an integer no larger than
the row count, far below 2**53, where a float holds every integer exactly;
its weighted y are summed afresh over its rows, since a float difference
would round otherwise.  A split between scanned rows i < j falls on the full
rows at ``next_up[i]``, the first row whose x is larger.  Thresholds and
leaf means are taken on the full rows (a pairwise sum's bits depend on how
many terms it adds, zeros included), so the trees are, bit for bit, those of
a scan over every row.
"""

import heapq
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from verisim import kernels
from verisim.fields import require_integer, require_list, require_object
from verisim.stats import r2

# integer used gas below this bound maps to its prediction step by table lookup
TABLE_SIZE = 1 << 20


@dataclass
class RegressionTree:
    """Array-encoded binary tree: node i is a leaf iff left[i] < 0."""

    thresholds: np.ndarray
    left: np.ndarray
    right: np.ndarray
    values: np.ndarray
    _steps: tuple = field(default=None, init=False, repr=False, compare=False)

    def predict_one(self, x: float) -> float:
        i = 0
        while self.left[i] >= 0:
            i = self.left[i] if x <= self.thresholds[i] else self.right[i]
        return float(self.values[i])

    def as_step_function(self):
        """(bounds, leaf_values): value j applies for bounds[j-1] < x <= bounds[j].

        Built on the first call: loading a tree walks it once to check it, and
        the forest's merge reuses that walk.
        """
        if self._steps is not None:
            return self._steps
        # walk Python lists: indexing numpy arrays node by node costs twice as much
        left, right = self.left.tolist(), self.right.tolist()
        thresholds, values = self.thresholds.tolist(), self.values.tolist()
        bounds, leaf_values = [], []
        stack = [(0, False)]
        while stack:
            i, emit_threshold = stack.pop()
            if emit_threshold:
                bounds.append(thresholds[i])
                continue
            if left[i] < 0:
                leaf_values.append(values[i])
            else:
                # in-order: left subtree, this threshold, right subtree
                stack.append((right[i], False))
                stack.append((i, True))
                stack.append((left[i], False))
        self._steps = (np.asarray(bounds), np.asarray(leaf_values))
        return self._steps

    def to_dict(self) -> dict:
        return {
            "thresholds": self.thresholds.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "values": self.values.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        """Load a tree from an object that has passed ``require_object``, rejecting any
        that could crash, loop or mispredict on use."""
        arrays = {}
        columns = (("thresholds", np.float64), ("left", np.int64), ("right", np.int64), ("values", np.float64))
        for name, dtype in columns:
            values = d[name]
            # numpy would read a true as 1, and fail on ragged nesting without naming the field
            if not isinstance(values, list) or not values or not set(map(type, values)) <= {int, float}:
                raise ValueError(f"{name} must be a non-empty list of numbers")
            raw = np.asarray(values)
            if raw.dtype.kind not in ("iu" if dtype is np.int64 else "iuf"):
                kind = "integer node indices" if dtype is np.int64 else "numbers"
                raise ValueError(f"{name} must hold {kind}, got dtype {raw.dtype}")
            arrays[name] = raw.astype(dtype)
            if not np.all(np.isfinite(arrays[name])):
                raise ValueError(f"{name} must be finite")
        # a value is a CPU time in seconds, as the dataset's cpu_time_s >= 0
        if np.any(arrays["values"] < 0):
            raise ValueError(f"values must be non-negative, got {float(arrays['values'].min())!r}")
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
        # one parent per node keeps the in-order walk linear: a chain of shared
        # nodes would double it at every level
        shared = np.flatnonzero(np.bincount(np.concatenate([left[internal], right[internal]]), minlength=n) > 1)
        if shared.size:
            raise ValueError(f"left/right: node {int(shared[0])} is the child of more than one node")
        tree = cls(**arrays)
        # predict_one and the merged step function agree only while the
        # in-order thresholds never decrease; a grown tree's never do
        bounds = tree.as_step_function()[0].tolist()
        drop = next(((a, b) for a, b in zip(bounds, bounds[1:]) if b < a), None)
        if drop:
            a, b = drop
            raise ValueError(f"thresholds: in-order split thresholds must be non-decreasing, got {a!r} before {b!r}")
        return tree


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
    _bounds: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _values: np.ndarray = field(default=None, init=False, repr=False, compare=False)
    _table: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        require_integer("tree_count", self.tree_count)
        require_integer("split_budget", self.split_budget)
        if self.tree_count != len(self.trees):
            raise ValueError(f"tree_count must equal the number of trees, {len(self.trees)}, got {self.tree_count!r}")

    def _ensure_merged(self):
        # the mean of step functions of one variable is itself a step function;
        # merging once makes batch prediction a single searchsorted
        if self._bounds is not None:
            return
        per_tree = [t.as_step_function() for t in self.trees]
        merged = np.unique(np.concatenate([b for b, _ in per_tree]))
        reps = np.append(merged, np.inf)
        acc = np.zeros(reps.size)
        for bounds, leaf_values in per_tree:
            acc += leaf_values[np.searchsorted(bounds, reps, side="left")]
        self._bounds = merged
        self._values = acc / len(self.trees)

    def _ensure_table(self):
        # run lengths of each step over the integers, not a float grid: the
        # table is the only large array built
        if self._table is not None:
            return
        m = self._bounds.size
        starts = np.clip(np.floor(self._bounds) + 1, 0, TABLE_SIZE).astype(np.int64)
        counts = np.diff(starts, prepend=0, append=TABLE_SIZE)
        self._table = np.repeat(np.arange(m + 1, dtype=np.min_scalar_type(m)), counts)

    def predict(self, used_gas, out: np.ndarray | None = None) -> np.ndarray:
        """The forest's CPU-time predictions, in ``out`` if given (a float64
        array of used_gas's shape), which is then returned."""
        self._ensure_merged()
        x = np.asarray(used_gas)
        if x.ndim == 0 or x.dtype.kind not in "iu":
            x = np.asarray(x, dtype=np.float64)
            # searchsorted's indices lie in [0, len(_values)); "clip" lets
            # take write straight into out, where "raise" buffers a copy
            return self._values.take(np.searchsorted(self._bounds, x, side="left"), out=out, mode="clip")
        self._ensure_table()
        steps = self._table.take(x, mode="clip")
        outside = (x < 0) | (x >= TABLE_SIZE)
        if outside.any():
            steps[outside] = np.searchsorted(self._bounds, x[outside].astype(np.float64), side="left")
        return self._values.take(steps, out=out, mode="clip")

    def to_dict(self) -> dict:
        return {
            "tree_count": self.tree_count,
            "split_budget": self.split_budget,
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ForestModel":
        """Load a forest from an object that has passed ``require_object``."""
        trees = [RegressionTree.from_dict(require_object("trees", t, RegressionTree))
                 for t in require_list("trees", d["trees"])]
        return cls(**{**d, "trees": trees})


def _grow_tree(x, y, counts, next_up, split_budget, wy, cw, cs) -> RegressionTree:
    """Grow one tree on the bootstrap ``counts`` of the x-sorted rows (x, y).

    ``wy``, ``cw`` and ``cs`` are the forest's buffers: the full rows'
    weighted y, then the cumulative weights and weighted y of the scanned
    rows, a node's sums kept from its first scanned row.
    """
    n = x.size
    rows = np.flatnonzero(counts)
    m = rows.size
    np.multiply(y, counts, out=wy)
    np.cumsum(counts[rows], out=cw[:m])
    del counts  # wy and cw hold all that the tree reads of it
    np.cumsum(wy[rows], out=cs[:m])
    # x rises from scanned row i to i + 1 exactly when the first larger x
    # comes at or before row i + 1
    distinct = next_up[rows[:-1]] <= rows[1:]

    thresholds = [0.0]
    left = [-1]
    right = [-1]
    # np.sum, not np.dot: BLAS splits a long dot across threads, which would
    # make the leaf bits depend on the thread count
    values = [float(np.sum(wy) / cw[m - 1])]

    # candidate heap: (-gain, tie counter, node, scanned rows [a, b) split
    # at k, full rows [lo, hi))
    heap = []
    counter = 0
    k, gain = kernels.best_split(cw[:m], cs[:m], distinct)
    if k >= 0:
        heap.append((-gain, counter, 0, 0, m, k, 0, n))
        counter += 1
    splits = 0
    while heap and splits < split_budget:
        _, _, node, a, b, k, lo, hi = heapq.heappop(heap)
        pos = int(next_up[rows[k - 1]])
        w_left = cw[k - 1]
        w_right = cw[b - 1] - w_left
        thresholds[node] = 0.5 * (x[pos - 1] + x[pos])
        left[node] = len(values)
        right[node] = len(values) + 1
        # leaf means sum the full rows, zero weights included
        for seg_lo, seg_hi, w in ((lo, pos, w_left), (pos, hi, w_right)):
            thresholds.append(0.0)
            left.append(-1)
            right.append(-1)
            values.append(float(np.sum(wy[seg_lo:seg_hi]) / w))
        splits += 1
        # the left child's sums are the node's prefix; the right child's are
        # an exact integer difference and a fresh sum
        cw[k:b] -= w_left
        np.cumsum(wy[rows[k:b]], out=cs[k:b])
        for child, ca, cb, clo, chi in ((left[node], a, k, lo, pos), (right[node], k, b, pos, hi)):
            ck, cgain = kernels.best_split(cw[ca:cb], cs[ca:cb], distinct[ca : cb - 1])
            if ck >= 0:
                heapq.heappush(heap, (-cgain, counter, child, ca, cb, ca + ck, clo, chi))
                counter += 1
    return RegressionTree(
        thresholds=np.asarray(thresholds, dtype=np.float64),
        left=np.asarray(left, dtype=np.int64),
        right=np.asarray(right, dtype=np.int64),
        values=np.asarray(values, dtype=np.float64),
    )


def fit_forest(xs, ys, tree_count: int, split_budget: int, seed=0) -> ForestModel:
    """Fit a forest of `tree_count` trees, each on a bootstrap resample."""
    require_integer("tree_count", tree_count)
    require_integer("split_budget", split_budget)
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size or x.size == 0:
        raise ValueError("xs and ys must be equally sized and non-empty")
    order = np.argsort(x, kind="stable")
    return _fit_forest_sorted(x[order], y[order], tree_count, split_budget, np.random.SeedSequence(seed))


def _fit_forest_sorted(x_sorted, y_sorted, tree_count, split_budget, seed_seq) -> ForestModel:
    n = x_sorted.size
    # next_up[i]: the first row whose x is larger than row i's (n if none),
    # in the narrowest unsigned type that counts the rows
    starts = np.append(np.flatnonzero(x_sorted[1:] > x_sorted[:-1]) + 1, n).astype(np.min_scalar_type(n))
    next_up = np.repeat(starts, np.diff(starts, prepend=0))
    del starts
    wy, cw, cs = np.empty(n), np.empty(n), np.empty(n)
    trees = []
    for child in seed_seq.spawn(tree_count):
        # the bootstrap counts are passed unnamed, so the tree frees them once read
        rng = np.random.default_rng(child)
        trees.append(_grow_tree(x_sorted, y_sorted, np.bincount(rng.integers(0, n, n), minlength=n),
                                next_up, split_budget, wy, cw, cs))
    return ForestModel(tree_count=tree_count, split_budget=split_budget, trees=trees)


def fit_rfr(xs, ys, d_grid, s_grid, folds: int = 10, seed: int = 0) -> tuple:
    """Grid search over (tree count, split budget) with K-fold CV.

    Returns the winning ``(tree_count, split_budget)``; grow the forest with
    :func:`fit_forest`.  Every (d, s) cell is scored by its mean
    cross-validated R^2, and the best cell wins (ties: earliest in grid
    order).  A one-cell grid is returned as is, once the inputs have passed
    the checks.  Deterministic for a given seed; fold and tree seeds are
    pre-spawned per cell so cells could be evaluated concurrently without
    changing the result.
    """
    require_integer("folds", folds, 2)
    d_grid = [require_integer("d_grid", d) for d in d_grid]
    s_grid = [require_integer("s_grid", s) for s in s_grid]
    if not d_grid or not s_grid:
        raise ValueError("d_grid and s_grid must be non-empty")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size:
        raise ValueError("xs and ys must be equally sized")
    if x.size < folds:
        raise ValueError(f"need at least as many samples ({x.size}) as folds ({folds})")
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
            scores.append(r2(y[te], model.predict(x[te])))
        mean_r2 = float(np.mean(scores))
        if mean_r2 > best_score:
            best_score = mean_r2
            best_cell = (d, s)
    return best_cell
