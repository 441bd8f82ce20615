"""Gradient-boosted regression trees with second-order loss expansion.

Trees are grown by exact greedy split search, with the regularized gain of
second-order boosting, learned default directions for missing values, row
subsampling, and column subsampling both per tree and per depth level.
Boosting-round count is chosen by early stopping on a validation set. The
booster works on arrays: a feature matrix and integer class indices (or
float targets) in, trees as parallel node arrays out.

Split search reads pre-sorted column blocks (Chen & Guestrin 2016, §4.1).
Each tree sorts its columns once, at the root, into a C-contiguous
``(columns, rows)`` block of row ids, stably with NaNs last. A split hands
each child the part of its node's block that the split rule sends it, by a
boolean compress that keeps each column's order, so a node's block is the
stable argsort of its own rows and the trees are those a sort per node
grows, to the bit. To keep that, the sums whose order sets their last bits
are taken as a sort per node takes them: the node totals and each column's
missing sums are 1-D sums (a 2-D row reduction sums in another order), and
the right sums with the missing rows left are ``(total - left) - missing``.

Two split rules follow XGBoost at its defaults (Chen & Guestrin 2016, eq. 7;
``CalcGain`` in XGBoost's ``src/tree/param.h``). A candidate is valid only
when each child's hessian sum, its missing rows counted on their default
side, is at least ``MIN_CHILD_WEIGHT`` (XGBoost's ``min_child_weight``,
default 1), and a node whose hessian sum is below ``2 * MIN_CHILD_WEIGHT``
is a leaf without a search. The gain soft-thresholds the gradient sums by
``reg_alpha``, as the leaf weight does. For binary log loss h = p(1-p) <=
0.25, so a child holds at least 4 rows; for squared error h = 1 per row.
The weight is in XGBoost's hessian units, and XGBoost's softmax hessian is
2 p(1-p), twice this booster's p(1-p), so a multiclass tree compares its
hessian sums with ``MIN_CHILD_WEIGHT / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import DataError
from .metrics import logloss, mmce, rmse

_NEG_INF = -np.inf
# XGBoost's min_child_weight at its default. A constant, not a tuned
# parameter: the paper's search space has eight, and this is not among them.
# It is in XGBoost's hessian units; ``train`` halves it for multiclass.
MIN_CHILD_WEIGHT = 1.0


@dataclass
class GBTConfig:
    """Training controls: the eight tuned hyperparameters plus fixed limits.

    ``gamma``, ``reg_lambda`` and ``reg_alpha`` are the post-transform values
    (the tuner works on a log2 scale and decodes before building configs).
    """

    eta: float = 0.1
    gamma: float = 0.0
    max_depth: int = 6
    colsample_bytree: float = 1.0
    colsample_bylevel: float = 1.0
    reg_lambda: float = 1.0
    reg_alpha: float = 0.0
    subsample: float = 1.0
    max_rounds: int = 1000
    patience: int = 10
    seed: int = 1

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if self.gamma < 0 or self.reg_lambda < 0 or self.reg_alpha < 0:
            raise ValueError("gamma, reg_lambda and reg_alpha must be >= 0")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        for name in ("colsample_bytree", "colsample_bylevel", "subsample"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must be in (0,1], got {v}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


class Tree(NamedTuple):
    """One regression tree as parallel node arrays; node 0 is the root.

    A node with ``feature < 0`` is a leaf whose output is ``value``. Any other
    node sends a row to its left child when its feature is below
    ``threshold``, to its right child otherwise, and a missing feature value
    goes left iff ``default_left``. Nodes are numbered in the depth-wise order
    they grow, and both children of a split are added together, so the right
    child is always ``left + 1``.
    """

    feature: np.ndarray  # intp, -1 at leaves
    threshold: np.ndarray  # float64
    default_left: np.ndarray  # bool
    left: np.ndarray  # intp left child index (the right child is left + 1), -1 at leaves
    value: np.ndarray  # float64 leaf output, learning rate applied; 0 inside

    @classmethod
    def from_lists(cls, **fields) -> "Tree":
        """Build a tree from one sequence per field, cast to the field dtypes."""
        return cls(**{
            name: np.asarray(fields[name], dtype=dt) for name, (dt, _) in _NODE_FIELDS.items()
        })


# Field name -> (dtype, value of a fresh node, which is a leaf until it splits).
_NODE_FIELDS = {
    "feature": (np.intp, -1),
    "threshold": (np.float64, 0.0),
    "default_left": (bool, True),
    "left": (np.intp, -1),
    "value": (np.float64, 0.0),
}


@dataclass(frozen=True)
class BoostedModel:
    """Ordered list of trees plus a base score.

    ``rounds`` holds one tree per boosting round for regression and binary
    tasks and K trees (round-major, one per class) for multiclass. Prediction
    uses rounds up to ``best_iteration`` only.
    """

    task: str
    base_score: np.ndarray  # shape () for regression/binary, (K,) for multiclass
    rounds: tuple[tuple[Tree, ...], ...]
    best_iteration: int
    valid_history: tuple[float, ...]
    n_features: int


def loss_grad_hess(task: str, scores: np.ndarray, y: np.ndarray):
    """Per-row gradient and hessian of the training loss at raw scores.

    Squared error (1/2)(f-y)^2: g = f - y, h = 1. Binary logistic on margin
    f: p = sigmoid(f), g = p - y, h = p(1-p). Multiclass softmax on logits:
    g_c = p_c - [y = c], h_c = p_c (1 - p_c).
    """
    scores = np.asarray(scores, dtype=np.float64)
    if task == "regression":
        y = np.asarray(y, dtype=np.float64)
        return scores - y, np.ones_like(scores)
    if task == "binary":
        y = np.asarray(y, dtype=np.float64)
        p = _sigmoid(scores)
        return p - y, p * (1.0 - p)
    if task == "multiclass":
        p = _softmax(scores)
        g = p.copy()
        g[np.arange(len(p)), np.asarray(y, dtype=np.intp)] -= 1.0
        return g, p * (1.0 - p)
    raise ValueError(f"unknown task {task!r}")


def split_gain(g_left, h_left, g_right, h_right, reg_lambda: float, reg_alpha: float, gamma: float):
    """Regularized gain of splitting a node into (left, right) halves.

    (1/2) [T(GL)^2/(HL+lambda) + T(GR)^2/(HR+lambda) - T(GL+GR)^2/(HL+HR+lambda)] - gamma,
    where T(G) = sign(G) max(|G| - alpha, 0) is the L1 soft-threshold that
    ``leaf_weight`` applies too; with alpha = 0, T(G) = G.
    Works elementwise on arrays; candidates with a zero denominator come out
    as -inf so they can never be selected. Where a denominator can be zero,
    call it under ``np.errstate(divide="ignore", invalid="ignore")``, as
    ``build_tree`` does once per tree.
    """
    g_left = np.asarray(g_left, dtype=np.float64)
    h_left = np.asarray(h_left, dtype=np.float64)
    g_right = np.asarray(g_right, dtype=np.float64)
    h_right = np.asarray(h_right, dtype=np.float64)
    g_node = _soft_threshold(g_left + g_right, reg_alpha)
    g_left = _soft_threshold(g_left, reg_alpha)
    g_right = _soft_threshold(g_right, reg_alpha)
    gain = 0.5 * (
        g_left**2 / (h_left + reg_lambda)
        + g_right**2 / (h_right + reg_lambda)
        - g_node**2 / (h_left + h_right + reg_lambda)
    ) - gamma
    return np.where(np.isfinite(gain), gain, _NEG_INF)


def _soft_threshold(g, reg_alpha: float):
    """The L1 soft-threshold sign(G) * max(|G| - alpha, 0), elementwise."""
    return np.sign(g) * np.maximum(np.abs(g) - reg_alpha, 0.0)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float, reg_alpha: float) -> float:
    """Optimal raw leaf weight -soft(G, alpha) / (H + lambda).

    soft() is the L1 soft-threshold sign(G) * max(|G| - alpha, 0). The
    learning rate is applied later, when the weight is accumulated.
    """
    denom = h_sum + reg_lambda
    if denom <= 0.0:
        return 0.0
    return float(-_soft_threshold(g_sum, reg_alpha) / denom)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softmax(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _best_split(X, gh, rows, srt, cols, reg_lambda, reg_alpha, gamma, min_child_weight):
    """Exact greedy search over (feature, threshold, default direction).

    ``gh`` stacks the gradients and hessians, indexed like the rows of ``X``.
    ``rows`` are the node's row ids, ascending, and ``srt`` is its sorted
    block: one row per feature in ``cols``, holding the node's row ids in
    ascending order of that feature's value, NaNs last, ties by row id. A
    candidate lies between two distinct adjacent present values, each of its
    children has a hessian sum of at least ``min_child_weight`` (the missing
    rows counted on their default side), and its sums are cumulative sums of
    ``gh`` gathered in that order. A node whose hessian sum is below
    ``2 * min_child_weight`` has no such candidate and is not searched.

    The result equals a scan feature-ascending, threshold-ascending, missing
    default left before right, where only a strictly larger gain replaces the
    best, so ties go to the earliest candidate. The sums keep the order that
    fixes their last bits, so that the split is the one a per-node sort finds:
    the node totals are 1-D sums over ``rows``, each column's missing sums
    are 1-D sums of its NaN tail, and the right sums with the missing rows
    left are ``(total - left) - missing``. Call it under
    ``np.errstate(divide="ignore", invalid="ignore")``, as ``build_tree`` does.
    Returns ``(gain, feature, threshold, default_left)``, or None when no
    valid candidate has a positive gain.
    """
    totals = np.array([gh[0, rows].sum(), gh[1, rows].sum()])
    if totals[1] < 2 * min_child_weight:
        return None
    totals = totals[:, None, None, None]
    xs = X[srt, cols[:, None]]
    ghs = gh[:, srt]
    # Axes (g or h, default direction, column, position): the missing rows go
    # left, then right. The right direction adds a zero missing sum, which
    # turns -0.0 into 0.0 at most and leaves every gain as it was.
    miss = np.zeros((2, 2, len(cols), 1))
    for f, n_miss in enumerate(np.isnan(xs).sum(axis=1).tolist()):
        if n_miss:
            miss[0, 0, f, 0] = ghs[0, f, -n_miss:].sum()
            miss[1, 0, f, 0] = ghs[1, f, -n_miss:].sum()
    cum = np.cumsum(ghs, axis=2)[:, None, :, :-1]
    sums_l, sums_r = cum + miss, (totals - cum) - miss
    # NaN compares false, so no boundary reaches into the missing rows.
    valid = (xs[:, :-1] < xs[:, 1:]) & (sums_l[1] >= min_child_weight) & (sums_r[1] >= min_child_weight)
    if not valid.any():
        return None
    gains = np.where(valid, split_gain(*sums_l, *sums_r, reg_lambda, reg_alpha, gamma), _NEG_INF)
    best = int(gains.max(axis=(0, 2)).argmax())  # the first column among equal gains
    # The column's first maximum, position first and then left before right,
    # is the scan's pick for that column.
    pos, right = divmod(int(gains[:, best].T.argmax()), 2)
    gain = gains[right, best, pos]
    if not gain > 0.0:
        return None
    return float(gain), int(cols[best]), _threshold(xs[best, pos], xs[best, pos + 1]), not right


def _threshold(lo, hi) -> float:
    """The midpoint of two adjacent present values, or else a value in (lo, hi].

    The midpoint is taken on Python floats, which give inf on overflow without
    a warning. It fails when ``lo + hi`` overflows, or when the values are
    adjacent floats and it rounds down to ``lo``; a threshold of ``lo`` would
    send both values right.
    """
    lo, hi = float(lo), float(hi)
    t = 0.5 * (lo + hi)
    if not lo < t <= hi:
        t = 0.5 * lo + 0.5 * hi
    return t if lo < t <= hi else hi


def _goes_left(x: np.ndarray, threshold: float, default_left: bool) -> np.ndarray:
    """The split rule: a value below ``threshold`` goes left, a missing one iff ``default_left``."""
    go_left = x < threshold
    go_left[np.isnan(x)] = default_left
    return go_left


def _sample_cols(cols: np.ndarray, frac: float, rng) -> np.ndarray:
    if frac >= 1.0 or len(cols) <= 1:
        return cols
    size = max(1, int(np.floor(frac * len(cols) + 0.5)))
    return np.sort(rng.choice(cols, size=size, replace=False))


def build_tree(
    X: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    rows: np.ndarray | None = None,
    *,
    max_depth: int,
    reg_lambda: float,
    reg_alpha: float,
    gamma: float,
    eta: float,
    cols: np.ndarray | None = None,
    colsample_bylevel: float = 1.0,
    rng=None,
    min_child_weight: float = MIN_CHILD_WEIGHT,
) -> Tree:
    """Grow a single regression tree on gradients/hessians.

    ``g`` and ``h`` are indexed like the rows of ``X``, and the tree grows on
    the row indices ``rows``, all rows by default. Growth is depth-wise; every
    level draws its own column subset (shared by all nodes of that level). A
    branch stops at ``max_depth``, at a node whose hessian sum is below
    ``2 * min_child_weight``, or when no candidate whose children both weigh
    at least ``min_child_weight`` has gain > 0. Leaf weights carry the
    learning rate already.

    The columns are sorted once per tree, at the root, and each split
    partitions its node's sorted block into the children's (see the module
    docstring).
    """
    if rows is None:
        rows = np.arange(len(X))
    if cols is None:
        cols = np.arange(X.shape[1])
    if rng is None:
        rng = np.random.default_rng(0)
    nodes: dict[str, list] = {name: [] for name in _NODE_FIELDS}

    def add_node() -> int:
        for name, (_, fresh) in _NODE_FIELDS.items():
            nodes[name].append(fresh)
        return len(nodes["feature"]) - 1

    def finish_leaf(node: int, rows: np.ndarray) -> None:
        nodes["value"][node] = eta * leaf_weight(
            float(g[rows].sum()), float(h[rows].sum()), reg_lambda, reg_alpha
        )

    # A stable sort keeps tied values in row order and puts NaNs last.
    srt = rows[np.argsort(X[np.ix_(rows, cols)].T, axis=1, kind="stable")]
    position = np.empty(X.shape[1], dtype=np.intp)  # a column's row in the block
    position[cols] = np.arange(len(cols))
    gh = np.stack([g, h])
    side = np.empty(len(X), dtype=bool)  # goes left, for the rows of the split being made
    frontier: list[tuple[int, np.ndarray, np.ndarray | None]] = [(add_node(), rows, srt)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for depth in range(max_depth):
            if not frontier:
                break
            level_cols = _sample_cols(cols, colsample_bylevel, rng)
            # _sample_cols hands back cols itself when it keeps them all.
            level = None if level_cols is cols else position[level_cols]
            last = depth == max_depth - 1  # its children are leaves and need no block
            next_frontier: list[tuple[int, np.ndarray, np.ndarray | None]] = []
            for node, rows, srt in frontier:
                block = srt if level is None else srt[level]
                split = _best_split(
                    X, gh, rows, block, level_cols, reg_lambda, reg_alpha, gamma, min_child_weight
                )
                if split is None:
                    finish_leaf(node, rows)
                    continue
                _, feature, threshold, default_left = split
                nodes["feature"][node] = feature
                nodes["threshold"][node] = threshold
                nodes["default_left"][node] = default_left
                go_left = _goes_left(X[rows, feature], threshold, default_left)
                nodes["left"][node] = left = add_node()
                add_node()  # the right child, numbered left + 1
                rows_left, rows_right = rows[go_left], rows[~go_left]
                if last:
                    next_frontier += [(left, rows_left, None), (left + 1, rows_right, None)]
                    continue
                side[rows] = go_left
                to_left = side[srt]
                next_frontier += [
                    (left, rows_left, srt[to_left].reshape(len(cols), len(rows_left))),
                    (left + 1, rows_right, srt[~to_left].reshape(len(cols), len(rows_right))),
                ]
            frontier = next_frontier
    for node, rows, _ in frontier:
        finish_leaf(node, rows)
    return Tree.from_lists(**nodes)


def _tree_outputs(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Each row's leaf value, by splitting row sets down the tree from the root."""
    out = np.empty(len(X), dtype=np.float64)
    stack = [(0, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        f = tree.feature[node]
        if f < 0:
            out[idx] = tree.value[node]
            continue
        go_left = _goes_left(X[idx, f], tree.threshold[node], tree.default_left[node])
        stack.append((tree.left[node], idx[go_left]))
        stack.append((tree.left[node] + 1, idx[~go_left]))
    return out


def _base_score(task: str, y: np.ndarray, n_classes: int) -> np.ndarray:
    if task == "regression":
        return np.asarray(float(np.mean(y)))
    if task == "binary":
        p = float(np.clip(np.mean(y), 1e-12, 1.0 - 1e-12))
        return np.asarray(float(np.log(p / (1.0 - p))))
    freq = np.bincount(np.asarray(y, dtype=np.intp), minlength=n_classes) / len(y)
    return np.log(np.clip(freq, 1e-12, None))


def _outputs(task: str, scores: np.ndarray) -> np.ndarray:
    """Regression values, or class probabilities per row, of (rows, n_out) raw scores."""
    if task == "regression":
        return scores[:, 0]
    if task == "binary":
        p = _sigmoid(scores[:, 0])
        return np.column_stack([1.0 - p, p])
    return _softmax(scores)


def _monitor_value(measure: str, task: str, outputs: np.ndarray, y: np.ndarray) -> float:
    """Validation value of the monitored measure at ``_outputs``."""
    if task == "regression":
        return rmse(outputs, y)
    if measure == "logloss":
        return logloss(outputs, y)
    return mmce(np.argmax(outputs, axis=1), y)


def train(
    X: np.ndarray,
    y: np.ndarray,
    X_valid: np.ndarray,
    y_valid: np.ndarray,
    task: str,
    n_classes: int,
    cfg: GBTConfig,
    measure: str,
) -> BoostedModel:
    """Boost with early stopping monitored on the validation arrays.

    ``X`` and ``X_valid`` are float feature matrices with NaN for missing
    cells. ``y`` and ``y_valid`` are float targets for regression and class
    indices in ``range(n_classes)`` for classification; ``n_classes`` sizes
    the multiclass score matrix and is ignored otherwise.

    A round trains one tree (K for multiclass) on a fresh seeded row
    subsample and tree-level column sample, updates train/valid raw scores,
    and records the validation measure. Training stops once the best
    validation value has not improved for ``patience`` consecutive rounds or
    at ``max_rounds``; ``best_iteration`` is the earliest argmin.
    """
    if len(X) == 0:
        raise DataError("cannot train on an empty dataset")
    if len(X_valid) == 0:
        raise DataError("validation split has zero rows")
    n, d = X.shape
    if d == 0:
        raise DataError("dataset has no feature columns")
    if X_valid.shape[1] != d:
        raise DataError(f"train has {d} feature columns, validation has {X_valid.shape[1]}")
    n_out = n_classes if task == "multiclass" else 1

    base = _base_score(task, y, n_out)
    # Raw scores are (rows, n_out); the loss reads a single output as a 1-D view.
    scores = np.tile(base, (n, 1))
    scores_v = np.tile(base, (len(X_valid), 1))
    raw = scores if task == "multiclass" else scores[:, 0]

    rng = np.random.default_rng(cfg.seed)
    all_cols = np.arange(d)
    # XGBoost's softmax hessian is 2 p(1-p), twice loss_grad_hess's p(1-p);
    # binary log loss and squared error have XGBoost's hessians.
    min_child_weight = MIN_CHILD_WEIGHT / 2 if task == "multiclass" else MIN_CHILD_WEIGHT
    rounds: list[tuple[Tree, ...]] = []
    history: list[float] = []
    best_value = np.inf
    stale = 0

    for _ in range(cfg.max_rounds):
        rows = None  # all rows
        if cfg.subsample < 1.0:
            size = max(1, int(np.floor(cfg.subsample * n + 0.5)))
            rows = np.sort(rng.choice(n, size=size, replace=False))
        g, h = loss_grad_hess(task, raw, y)
        g, h = g.reshape(n, n_out), h.reshape(n, n_out)
        group = []
        for c in range(n_out):
            tree_cols = _sample_cols(all_cols, cfg.colsample_bytree, rng)
            tree = build_tree(
                X, g[:, c], h[:, c], rows,
                max_depth=cfg.max_depth, reg_lambda=cfg.reg_lambda,
                reg_alpha=cfg.reg_alpha, gamma=cfg.gamma, eta=cfg.eta,
                cols=tree_cols, colsample_bylevel=cfg.colsample_bylevel, rng=rng,
                min_child_weight=min_child_weight,
            )
            group.append(tree)
            scores[:, c] += _tree_outputs(tree, X)
            scores_v[:, c] += _tree_outputs(tree, X_valid)
        rounds.append(tuple(group))

        value = _monitor_value(measure, task, _outputs(task, scores_v), y_valid)
        history.append(value)
        if value < best_value:
            best_value = value
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    return BoostedModel(
        task=task,
        base_score=base,
        rounds=tuple(rounds),
        best_iteration=int(np.argmin(history)) + 1,
        valid_history=tuple(history),
        n_features=d,
    )


def predict(model: BoostedModel, X: np.ndarray) -> np.ndarray:
    """Predict raw regression values or row-stochastic class probabilities.

    Sums tree outputs through best_iteration rounds. Missing features follow
    each node's stored default direction.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DataError(
            f"feature count mismatch: model expects {model.n_features}, got "
            f"{X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    scores = np.tile(model.base_score, (len(X), 1))
    for group in model.rounds[: model.best_iteration]:
        for c, tree in enumerate(group):
            scores[:, c] += _tree_outputs(tree, X)
    return _outputs(model.task, scores)
