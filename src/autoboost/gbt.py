"""Gradient-boosted regression trees with second-order loss expansion.

Trees are grown by exact greedy split search over feature values sorted per
node, with the regularized gain of second-order boosting, learned default
directions for missing values, row subsampling, and column subsampling both
per tree and per depth level. Boosting-round count is chosen by early
stopping on a validation set. The booster works on arrays: a feature matrix
and integer class indices (or float targets) in, trees as parallel node
arrays out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import DataError
from .metrics import logloss, mmce, rmse

_NEG_INF = -np.inf


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


def split_gain(g_left, h_left, g_right, h_right, reg_lambda: float, gamma: float):
    """Regularized gain of splitting a node into (left, right) halves.

    (1/2) [GL^2/(HL+lambda) + GR^2/(HR+lambda) - (GL+GR)^2/(HL+HR+lambda)] - gamma.
    Works elementwise on arrays; candidates with a zero denominator come out
    as -inf so they can never be selected.
    """
    g_left = np.asarray(g_left, dtype=np.float64)
    h_left = np.asarray(h_left, dtype=np.float64)
    g_right = np.asarray(g_right, dtype=np.float64)
    h_right = np.asarray(h_right, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (
            g_left**2 / (h_left + reg_lambda)
            + g_right**2 / (h_right + reg_lambda)
            - (g_left + g_right) ** 2 / (h_left + h_right + reg_lambda)
        ) - gamma
    return np.where(np.isfinite(gain), gain, _NEG_INF)


def leaf_weight(g_sum: float, h_sum: float, reg_lambda: float, reg_alpha: float) -> float:
    """Optimal raw leaf weight -soft(G, alpha) / (H + lambda).

    soft() is the L1 soft-threshold sign(G) * max(|G| - alpha, 0). The
    learning rate is applied later, when the weight is accumulated.
    """
    denom = h_sum + reg_lambda
    if denom <= 0.0:
        return 0.0
    soft = np.sign(g_sum) * max(abs(g_sum) - reg_alpha, 0.0)
    return float(-soft / denom)


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


def _best_split(X, g, h, rows, cols, reg_lambda, gamma):
    """Exact greedy search over (feature, threshold, default direction).

    All columns of the node are sorted once, as one ``rows x cols`` block; a
    candidate lies between two distinct adjacent present values, and its sums
    are cumulative sums of the sorted gradients. The result equals a scan
    feature-ascending, threshold-ascending, missing-default left before right,
    where only a strictly larger gain replaces the best, so ties go to the
    earliest candidate. Returns ``(gain, feature, threshold, default_left)``,
    or None when no candidate has a positive gain.
    """
    g_node = g[rows]
    h_node = h[rows]
    g_total = float(g_node.sum())
    h_total = float(h_node.sum())
    block = X[np.ix_(rows, cols)]
    # A stable sort puts each column's NaNs last, in row order.
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    gs = g_node[order]
    hs = h_node[order]
    # Missing-row sums as the 1-D sum over the same rows in the same order,
    # which a column reduction of the block would not reproduce to the bit.
    n_miss = np.isnan(block).sum(axis=0)
    g_miss = np.zeros(len(cols))
    h_miss = np.zeros(len(cols))
    for f in np.flatnonzero(n_miss):
        g_miss[f] = gs[-n_miss[f]:, f].sum()
        h_miss[f] = hs[-n_miss[f]:, f].sum()

    g_left = np.cumsum(gs, axis=0)[:-1]
    h_left = np.cumsum(hs, axis=0)[:-1]
    # NaN compares false, so no boundary reaches into the missing rows.
    boundary = xs[:-1] < xs[1:]

    # Missing rows on the left, then on the right.
    gains_l = split_gain(
        g_left + g_miss, h_left + h_miss,
        g_total - g_left - g_miss, h_total - h_left - h_miss,
        reg_lambda, gamma,
    )
    gains_r = split_gain(g_left, h_left, g_total - g_left, h_total - h_left, reg_lambda, gamma)
    # Rows of (position, direction) run threshold-ascending, left before
    # right, so a column's first maximum is the scan's pick for that column.
    gains = np.where(boundary[:, None], np.stack([gains_l, gains_r], axis=1), _NEG_INF)
    gains = gains.reshape(-1, len(cols))
    best = int(np.argmax(gains.max(axis=0)))  # the first column among equal gains
    i = int(np.argmax(gains[:, best]))
    if not gains[i, best] > 0.0:
        return None
    pos, right = divmod(i, 2)
    threshold = 0.5 * (xs[pos, best] + xs[pos + 1, best])
    return float(gains[i, best]), int(cols[best]), float(threshold), not right


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
) -> Tree:
    """Grow a single regression tree on gradients/hessians.

    ``g`` and ``h`` are indexed like the rows of ``X``, and the tree grows on
    the row indices ``rows``, all rows by default. Growth is depth-wise; every
    level draws its own column subset (shared by all nodes of that level). A
    branch stops at ``max_depth`` or when no candidate has gain > 0. Leaf
    weights carry the learning rate already.
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

    frontier: list[tuple[int, np.ndarray]] = [(add_node(), rows)]
    for _ in range(max_depth):
        if not frontier:
            break
        level_cols = _sample_cols(cols, colsample_bylevel, rng)
        next_frontier: list[tuple[int, np.ndarray]] = []
        for node, rows in frontier:
            split = _best_split(X, g, h, rows, level_cols, reg_lambda, gamma) if len(rows) >= 2 else None
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
            next_frontier += [(left, rows[go_left]), (left + 1, rows[~go_left])]
        frontier = next_frontier
    for node, rows in frontier:
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
