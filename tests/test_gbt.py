"""Boosting internals: losses, gains, leaf weights, exact splits, training."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoboost.data import Column, DataError, Dataset
from unittest import mock

from autoboost import gbt
from autoboost.gbt import (
    MIN_CHILD_WEIGHT,
    BoostedModel,
    GBTConfig,
    Tree,
    build_tree,
    leaf_weight,
    loss_grad_hess,
    predict,
    split_gain,
    train,
    _sample_cols,
    _tree_outputs,
)

from conftest import binary_margin_dataset, numeric_binary_dataset


# --- independent loss definitions for the finite-difference oracle ----------


def squared_loss(f, y):
    return 0.5 * (f - y) ** 2


def logistic_loss(f, y):
    # numerically stable -[y log p + (1-y) log(1-p)] on the margin
    return math.log1p(math.exp(-abs(f))) + max(f, 0.0) - f * y


def softmax_loss(logits, y_idx):
    z = logits - np.max(logits)
    return float(np.log(np.exp(z).sum()) - z[y_idx])


def central_diff(fn, x, eps):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


def second_diff(fn, x, eps):
    return (fn(x + eps) - 2.0 * fn(x) + fn(x - eps)) / (eps * eps)


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-8)


class TestLossGradHess:
    def test_logistic_at_zero(self):
        g, h = loss_grad_hess("binary", np.asarray([0.0]), np.asarray([1.0]))
        assert g[0] == -0.5 and h[0] == 0.25

    def test_squared_definition(self):
        g, h = loss_grad_hess("regression", np.asarray([3.0]), np.asarray([1.0]))
        assert g[0] == 2.0 and h[0] == 1.0

    def test_softmax_symmetry_two_classes(self):
        g, h = loss_grad_hess("multiclass", np.zeros((1, 2)), np.asarray([0]))
        np.testing.assert_allclose(g[0], [-0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(h[0], [0.25, 0.25], atol=1e-15)

    def test_squared_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            f, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if abs(f - y) < 1e-3:
                continue
            g, h = loss_grad_hess("regression", np.asarray([f]), np.asarray([y]))
            assert rel_err(g[0], central_diff(lambda s: squared_loss(s, y), f, 1e-6)) < 1e-5
            assert rel_err(h[0], second_diff(lambda s: squared_loss(s, y), f, 1e-4)) < 1e-5

    def test_logistic_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            f, y = rng.uniform(-2, 2), float(rng.integers(0, 2))
            g, h = loss_grad_hess("binary", np.asarray([f]), np.asarray([y]))
            assert rel_err(g[0], central_diff(lambda s: logistic_loss(s, y), f, 1e-6)) < 1e-5
            assert rel_err(h[0], second_diff(lambda s: logistic_loss(s, y), f, 1e-4)) < 1e-5

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_softmax_matches_finite_differences(self, k):
        rng = np.random.default_rng(10 + k)
        for _ in range(20):
            logits = rng.uniform(-2, 2, size=k)
            y_idx = int(rng.integers(0, k))
            g, h = loss_grad_hess("multiclass", logits[None, :], np.asarray([y_idx]))
            for c in range(k):
                def slice_loss(s, c=c):
                    z = logits.copy()
                    z[c] = s
                    return softmax_loss(z, y_idx)

                assert rel_err(g[0, c], central_diff(slice_loss, logits[c], 1e-6)) < 1e-5
                assert rel_err(h[0, c], second_diff(slice_loss, logits[c], 1e-4)) < 1e-5


class TestSplitGainLeafWeight:
    def test_gain_formula(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, reg_lambda=0.0, reg_alpha=0.0, gamma=0.0) == 4.0

    def test_gamma_shifts_gain_negative(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, reg_lambda=0.0, reg_alpha=0.0, gamma=5.0) == -1.0

    def test_symmetric_split_has_zero_gain(self):
        assert split_gain(1.0, 1.0, 1.0, 1.0, reg_lambda=0.0, reg_alpha=0.0, gamma=0.0) == 0.0

    def test_alpha_soft_thresholds_each_gradient_sum(self):
        # T(-2) = -1, T(2) = 1 and T(0) = 0: (1/2)(1/1 + 1/1 - 0/2) = 1.
        assert split_gain(-2.0, 1.0, 2.0, 1.0, reg_lambda=0.0, reg_alpha=1.0, gamma=0.0) == 1.0
        # alpha = 2 zeroes every sum, so the split gains nothing.
        assert split_gain(-2.0, 1.0, 2.0, 1.0, reg_lambda=0.0, reg_alpha=2.0, gamma=0.0) == 0.0

    def test_leaf_weight_formula(self):
        assert leaf_weight(-4.0, 1.0, 1.0, 0.0) == 2.0

    def test_soft_threshold_zeroes_small_gradients(self):
        assert leaf_weight(0.5, 1.0, 0.0, 1.0) == 0.0
        assert leaf_weight(-0.5, 1.0, 0.0, 0.75) == 0.0

    def test_weight_shrinks_monotonically_with_lambda(self):
        weights = [abs(leaf_weight(-4.0, 1.0, lam, 0.0)) for lam in (0.0, 1.0, 10.0, 1e6)]
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[-1] < 1e-5


# --- exhaustive depth-1 oracle ----------------------------------------------


def soft(G, alpha):
    return math.copysign(max(abs(G) - alpha, 0.0), G)


def depth1_oracle(X, g, h, lam, alpha=0.0):
    """Enumerate every (feature, threshold, default direction) candidate.

    Candidates with a child whose hessian sum is below ``MIN_CHILD_WEIGHT``
    are dropped after the enumeration, and the gain soft-thresholds each
    gradient sum by ``alpha``. Returns (best, margin): the winning (gain,
    feature, threshold, default_left) tuple and the gap between it and the
    best candidate with a different (feature, threshold, direction). Two
    features occasionally isolate the same extreme row from opposite ends,
    which ties the gain exactly; a near-zero margin tells the caller the
    argmax is not unique.
    """
    g_total, h_total = g.sum(), h.sum()
    candidates = []
    for f in range(X.shape[1]):
        x = X[:, f]
        miss = np.isnan(x)
        vals = np.unique(x[~miss])
        for lo, hi in zip(vals[:-1], vals[1:]):
            thr = (lo + hi) / 2.0
            for default_left in (True, False):
                left = (x < thr) | (miss & default_left)
                gl, hl = g[left].sum(), h[left].sum()
                gr, hr = g_total - gl, h_total - hl
                if min(hl, hr) < MIN_CHILD_WEIGHT:
                    continue
                sl, sr, st_ = soft(gl, alpha), soft(gr, alpha), soft(g_total, alpha)
                gain = 0.5 * (sl * sl / (hl + lam) + sr * sr / (hr + lam) - st_ * st_ / (h_total + lam))
                candidates.append((gain, f, thr, default_left))
    if not candidates:
        return None, np.inf
    best = max(candidates, key=lambda c: c[0])
    runners = [c[0] for c in candidates if (c[1], c[2], c[3]) != (best[1], best[2], best[3])]
    margin = best[0] - max(runners) if runners else np.inf
    return best, margin


def direct_gain(X, g, h, feature, thr, default_left, lam, alpha=0.0):
    x = X[:, feature]
    miss = np.isnan(x)
    left = (x < thr) | (miss & default_left)
    return float(
        split_gain(g[left].sum(), h[left].sum(), g[~left].sum(), h[~left].sum(), lam, alpha, 0.0)
    )


def root_split(tree):
    """(feature, threshold, default_left) of node 0, the root of ``tree``."""
    return int(tree.feature[0]), float(tree.threshold[0]), bool(tree.default_left[0])


def assert_split_matches_oracle(tree, oracle, margin, X, g, h, lam=0.0, alpha=0.0):
    """The root split must be the oracle's, up to exact gain ties.

    A unique optimum (margin above the 1e-9 tolerance) demands the identical
    (feature, threshold, direction) triple; under an exact tie any candidate
    whose gain matches the optimum within 1e-9 is an equally correct answer.
    """
    gain, f, thr, default_left = oracle
    impl_gain = direct_gain(X, g, h, *root_split(tree), lam, alpha)
    assert abs(impl_gain - gain) <= 1e-9
    if margin > 1e-9:
        assert root_split(tree) == (f, thr, default_left)


class TestExactSplitOracle:
    def test_depth1_matches_bruteforce_on_random_data(self):
        rng = np.random.default_rng(2024)
        for case in range(50):
            n = int(rng.integers(4, 31))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            if case % 2 == 0:  # half the cases exercise missing values
                X[rng.uniform(size=(n, d)) < 0.2] = np.nan
            y = rng.normal(size=n)
            g = -y  # squared loss at scores 0
            h = np.ones(n)
            tree = build_tree(
                X, g, h, max_depth=1, reg_lambda=0.0, reg_alpha=0.0, gamma=0.0, eta=1.0
            )
            oracle, margin = depth1_oracle(X, g, h, 0.0)
            if tree.feature[0] < 0:
                assert oracle is None or oracle[0] <= 0.0
                continue
            assert_split_matches_oracle(tree, oracle, margin, X, g, h)


def depth1_tree(X, g, h, lam=0.0, cols=None, alpha=0.0):
    return build_tree(
        X, g, h, max_depth=1, reg_lambda=lam, reg_alpha=alpha, gamma=0.0, eta=1.0,
        cols=None if cols is None else np.asarray(cols),
    )


@st.composite
def split_cases(draw):
    """Integer-valued columns (many ties), some constant, NaN shares up to 1,
    an ascending column subset, random positive hessians and lambda 0 or 1."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 4))
    levels = draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))
    nan_share = draw(st.lists(
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=d, max_size=d
    ))
    cols = sorted(draw(st.sets(st.integers(0, d - 1), min_size=1)))
    lam = draw(st.sampled_from([0.0, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, levels, size=(n, d)).astype(float)
    X[rng.uniform(size=(n, d)) < nan_share] = np.nan
    return X, rng.normal(size=n), rng.uniform(0.1, 2.0, size=n), cols, lam


class TestSplitTieRule:
    def test_equal_gains_take_the_smaller_threshold_and_default_left(self):
        # Thresholds 0.5 and 2.5 tie exactly; with no NaN, left and right tie too.
        tree = depth1_tree(np.arange(4.0)[:, None], np.asarray([1.0, -1.0, -1.0, 1.0]), np.ones(4))
        assert root_split(tree) == (0, 0.5, True)

    def test_right_default_wins_a_tie_at_a_smaller_threshold(self):
        # 1.5 with the missing row right and 2.5 with it left each isolate one
        # g = 2 row at equal gain; the smaller threshold wins, default right.
        X = np.asarray([2.0, np.nan, 3.0, 1.0])[:, None]
        tree = depth1_tree(X, np.asarray([1.0, 1.0, 2.0, 2.0]), np.ones(4))
        assert root_split(tree) == (0, 1.5, False)

    def test_identical_columns_take_the_first(self):
        X = np.repeat(np.arange(6.0)[:, None], 2, axis=1)
        tree = depth1_tree(X, np.asarray([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]), np.ones(6))
        assert root_split(tree)[0] == 0

    def test_winning_column_maps_back_through_cols(self):
        X = np.repeat(np.arange(6.0)[:, None], 3, axis=1)
        g = np.asarray([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
        tree = depth1_tree(X, g, np.ones(6), cols=[1, 2])
        assert root_split(tree)[0] == 1

    def test_rows_grow_the_tree_of_those_rows(self):
        # Growing on row indices into X gives, to the bit, the tree of a copy of those rows.
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 4))
        X[rng.uniform(size=X.shape) < 0.1] = np.nan
        g, h = rng.normal(size=60), rng.uniform(0.1, 1.0, size=60)
        rows = np.sort(rng.choice(60, size=33, replace=False))
        kw = dict(max_depth=4, reg_lambda=1.0, reg_alpha=0.1, gamma=0.0, eta=0.3,
                  colsample_bylevel=0.75)
        on_rows = build_tree(X, g, h, rows, rng=np.random.default_rng(3), **kw)
        copied = build_tree(X[rows], g[rows], h[rows], rng=np.random.default_rng(3), **kw)
        assert on_rows.feature[0] >= 0
        for got, want in zip(on_rows, copied):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lo, hi", [
        (1.0, 1.0 + 2.0**-52),  # adjacent floats, whose midpoint rounds down to lo
        (1.2e308, 1.5e308),  # lo + hi overflows to inf
        (-1.7e308, -1.2e308),  # lo + hi overflows to -inf
    ])
    def test_threshold_lies_above_lo_and_splits_the_rows(self, lo, hi):
        X = np.asarray([lo, lo, hi, hi])[:, None]
        tree = depth1_tree(X, np.asarray([-1.0, -1.0, 1.0, 1.0]), np.ones(4), lam=1.0)
        assert lo < tree.threshold[0] <= hi
        np.testing.assert_array_equal(_tree_outputs(tree, X), [2 / 3, 2 / 3, -2 / 3, -2 / 3])

    @settings(max_examples=1000, derandomize=True, deadline=None, database=None)
    @given(split_cases())
    def test_column_subset_matches_oracle(self, case):
        X, g, h, cols, lam = case
        tree = depth1_tree(X, g, h, lam, cols)
        oracle, margin = depth1_oracle(X[:, cols], g, h, lam)
        if tree.feature[0] < 0:
            assert oracle is None or oracle[0] <= 0.0
            return
        gain, f, thr, default_left = oracle
        assert_split_matches_oracle(tree, (gain, cols[f], thr, default_left), margin, X, g, h, lam)

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(split_cases(), st.sampled_from([0.25, 1.0]))
    def test_alpha_matches_oracle(self, case, alpha):
        X, g, h, cols, lam = case
        tree = depth1_tree(X, g, h, lam, cols, alpha)
        oracle, margin = depth1_oracle(X[:, cols], g, h, lam, alpha)
        if tree.feature[0] < 0:
            assert oracle is None or oracle[0] <= 0.0
            return
        gain, f, thr, default_left = oracle
        assert_split_matches_oracle(
            tree, (gain, cols[f], thr, default_left), margin, X, g, h, lam, alpha
        )

    def test_binary_node_skips_a_child_lighter_than_the_minimum_weight(self):
        # A confidently wrong first row (h = 0.045) has the largest gain alone,
        # 10.05 at threshold 0.5, but that child weighs less than MIN_CHILD_WEIGHT.
        # The best valid candidate, 7.57 at 5.5, is the class boundary.
        X = np.arange(12.0)[:, None]
        scores = np.asarray([-3.0] + [0.0] * 11)
        g, h = loss_grad_hess("binary", scores, np.asarray([1.0] * 6 + [0.0] * 6))
        assert h[0] < MIN_CHILD_WEIGHT <= h[1:].sum()
        assert direct_gain(X, g, h, 0, 0.5, True, 0.0) > direct_gain(X, g, h, 0, 5.5, True, 0.0) > 0
        assert root_split(depth1_tree(X, g, h)) == (0, 5.5, True)


def walk_to_leaf(tree, x):
    """The leaf one row reaches: below the threshold goes left, NaN follows default_left."""
    node = 0
    while tree.feature[node] >= 0:
        v = x[tree.feature[node]]
        go_left = bool(tree.default_left[node]) if math.isnan(v) else v < tree.threshold[node]
        node = tree.left[node] if go_left else tree.left[node] + 1
    return node


@st.composite
def tree_cases(draw):
    """Integer-valued columns (ties) with NaN shares up to 0.4, a depth of 1 to 4,
    random positive hessians, lambda 0 or 1 and alpha 0 or 0.5."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.integers(2, 8)), size=(n, d)).astype(float)
    X[rng.uniform(size=(n, d)) < draw(st.floats(0.0, 0.4))] = np.nan
    params = dict(
        max_depth=draw(st.integers(1, 4)), reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        reg_alpha=draw(st.sampled_from([0.0, 0.5])), gamma=0.0, eta=0.3,
    )
    return X, rng.normal(size=n), rng.uniform(0.1, 2.0, size=n), params


class TestGrowthMatchesApplication:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(tree_cases())
    def test_leaves_hold_the_rows_the_walk_sends_them(self, case):
        X, g, h, params = case
        tree = build_tree(X, g, h, **params)
        leaf = np.asarray([walk_to_leaf(tree, x) for x in X])
        np.testing.assert_array_equal(_tree_outputs(tree, X), tree.value[leaf])
        for node in np.flatnonzero(tree.feature < 0):
            rows = np.flatnonzero(leaf == node)  # ascending, as growth keeps them
            want = params["eta"] * leaf_weight(
                float(g[rows].sum()), float(h[rows].sum()), params["reg_lambda"], params["reg_alpha"]
            )
            assert tree.value[node] == want


def reference_split(X, g, h, rows, cols, reg_lambda, reg_alpha, gamma):
    """The split search of a node on its own stable argsort, one gain call per direction.

    A candidate whose child has a hessian sum below ``MIN_CHILD_WEIGHT`` is
    masked like a tie between two equal values.

    Returns ``(feature, threshold, default_left)`` or None. The threshold is
    the plain midpoint, which is exact for the integer-valued columns drawn here.
    """
    g_node, h_node = g[rows], h[rows]
    g_total, h_total = float(g_node.sum()), float(h_node.sum())
    block = X[np.ix_(rows, cols)]
    order = np.argsort(block, axis=0, kind="stable")
    xs = np.take_along_axis(block, order, axis=0)
    gs, hs = g_node[order], h_node[order]
    n_miss = np.isnan(block).sum(axis=0)
    g_miss, h_miss = np.zeros(len(cols)), np.zeros(len(cols))
    for f in np.flatnonzero(n_miss):
        g_miss[f] = gs[-n_miss[f]:, f].sum()
        h_miss[f] = hs[-n_miss[f]:, f].sum()
    g_left = np.cumsum(gs, axis=0)[:-1]
    h_left = np.cumsum(hs, axis=0)[:-1]
    h_l = np.stack([h_left + h_miss, h_left], axis=1)
    h_r = np.stack([h_total - h_left - h_miss, h_total - h_left], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains_l = split_gain(
            g_left + g_miss, h_l[:, 0],
            g_total - g_left - g_miss, h_r[:, 0], reg_lambda, reg_alpha, gamma,
        )
        gains_r = split_gain(
            g_left, h_l[:, 1], g_total - g_left, h_r[:, 1], reg_lambda, reg_alpha, gamma
        )
    valid = (xs[:-1] < xs[1:])[:, None] & (h_l >= MIN_CHILD_WEIGHT) & (h_r >= MIN_CHILD_WEIGHT)
    gains = np.where(valid, np.stack([gains_l, gains_r], axis=1), -np.inf)
    gains = gains.reshape(-1, len(cols))
    best = int(np.argmax(gains.max(axis=0)))
    i = int(np.argmax(gains[:, best]))
    if not gains[i, best] > 0.0:
        return None
    pos, right = divmod(i, 2)
    return int(cols[best]), float(0.5 * (xs[pos, best] + xs[pos + 1, best])), not right


def reference_tree(X, g, h, rows, *, max_depth, reg_lambda, reg_alpha, gamma, eta, cols,
                   colsample_bylevel, rng):
    """Depth-wise growth that sorts every node's rows anew and keeps them ascending."""
    nodes = {name: [] for name in Tree._fields}

    def add_node():
        for name, fresh in zip(Tree._fields, (-1, 0.0, True, -1, 0.0)):
            nodes[name].append(fresh)
        return len(nodes["feature"]) - 1

    def finish_leaf(node, rows):
        nodes["value"][node] = eta * leaf_weight(
            float(g[rows].sum()), float(h[rows].sum()), reg_lambda, reg_alpha
        )

    frontier = [(add_node(), rows)]
    for _ in range(max_depth):
        if not frontier:
            break
        level_cols = _sample_cols(cols, colsample_bylevel, rng)
        next_frontier = []
        for node, rows in frontier:
            split = None
            if h[rows].sum() >= 2 * MIN_CHILD_WEIGHT:
                split = reference_split(X, g, h, rows, level_cols, reg_lambda, reg_alpha, gamma)
            if split is None:
                finish_leaf(node, rows)
                continue
            feature, threshold, default_left = split
            nodes["feature"][node], nodes["threshold"][node] = feature, threshold
            nodes["default_left"][node] = default_left
            x = X[rows, feature]
            go_left = np.where(np.isnan(x), default_left, x < threshold)
            nodes["left"][node] = left = add_node()
            add_node()
            next_frontier += [(left, rows[go_left]), (left + 1, rows[~go_left])]
        frontier = next_frontier
    for node, rows in frontier:
        finish_leaf(node, rows)
    return Tree.from_lists(**nodes)


@st.composite
def growth_cases(draw):
    """Integer-valued columns (ties) with NaN shares up to 0.4, a row subset, an
    ascending column subset, column sampling per level, a depth of 1 to 5 and
    lambda 0 or 1."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.integers(2, 8)), size=(n, d)).astype(float)
    X[rng.uniform(size=(n, d)) < draw(st.floats(0.0, 0.4))] = np.nan
    rows = np.sort(rng.choice(n, size=draw(st.integers(1, n)), replace=False))
    cols = np.asarray(sorted(draw(st.sets(st.integers(0, d - 1), min_size=1))))
    params = dict(
        max_depth=draw(st.integers(1, 5)), reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        reg_alpha=draw(st.sampled_from([0.0, 0.5])), gamma=draw(st.sampled_from([0.0, 0.1])),
        eta=0.3, cols=cols, colsample_bylevel=draw(st.sampled_from([1.0, 0.75, 0.5, 0.3])),
    )
    return X, rng.normal(size=n), rng.uniform(0.1, 2.0, size=n), rows, params, draw(st.integers(0, 99))


class TestGrowthMatchesPerNodeSort:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(growth_cases())
    def test_sorted_blocks_grow_the_tree_of_a_sort_per_node(self, case):
        X, g, h, rows, params, seed = case
        got = build_tree(X, g, h, rows, rng=np.random.default_rng(seed), **params)
        want = reference_tree(X, g, h, rows, rng=np.random.default_rng(seed), **params)
        for name, a, b in zip(Tree._fields, got, want):
            np.testing.assert_array_equal(a, b, err_msg=name)


class TestMinChildWeight:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(growth_cases())
    def test_split_children_are_heavy_enough(self, case):
        X, g, h, rows, params, seed = case
        tree = build_tree(X, g, h, rows, rng=np.random.default_rng(seed), **params)
        assert_children_weigh_at_least(tree, X, h, rows, MIN_CHILD_WEIGHT)

    def test_a_node_lighter_than_two_children_is_not_searched(self):
        # h sums to 1.8 < 2 * MIN_CHILD_WEIGHT, so the search returns before
        # it reads X, the sorted block or the columns.
        gh = np.asarray([[-3.0, 3.0], [0.9, 0.9]])
        assert gbt._best_split(None, gh, np.arange(2), None, None, 0.0, 0.0, 0.0, MIN_CHILD_WEIGHT) is None

    def test_one_row_heavier_than_two_children_is_a_leaf(self):
        tree = depth1_tree(np.asarray([[1.0]]), np.asarray([-3.0]), np.asarray([5.0]))
        assert tree.feature[0] < 0

    def test_multiclass_children_meet_the_weight_on_xgboost_softmax_hessians(self):
        # XGBoost's softmax hessian is 2 p(1-p), twice loss_grad_hess's, so a
        # multiclass child needs a sum of MIN_CHILD_WEIGHT / 2 in this booster's units.
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 3))
        y = np.digitize(X[:, 0] + rng.normal(size=150), [-0.5, 0.5])
        cfg = GBTConfig(eta=0.3, max_depth=6, reg_lambda=0.0, max_rounds=5, patience=5)
        model = train(X, y, X, y, "multiclass", 3, cfg, "logloss")
        scores = np.tile(model.base_score, (len(X), 1))
        lightest = np.inf
        for group in model.rounds:
            _, h = loss_grad_hess("multiclass", scores, y)
            for c, tree in enumerate(group):
                lightest = min(lightest, assert_children_weigh_at_least(
                    tree, X, 2 * h[:, c], np.arange(len(X)), MIN_CHILD_WEIGHT
                ))
                scores[:, c] += _tree_outputs(tree, X)
        # A child that the booster's own hessians would have held to MIN_CHILD_WEIGHT.
        assert lightest < 2 * MIN_CHILD_WEIGHT


def assert_children_weigh_at_least(tree, X, h, rows, min_weight):
    """Every split's children have hessian sums of at least ``min_weight``; returns the least."""
    weight = np.zeros(len(tree.feature))
    np.add.at(weight, [walk_to_leaf(tree, X[r]) for r in rows], h[rows])
    lightest = np.inf
    # Children are numbered after their parent, so a reverse scan sums them first.
    for node in np.flatnonzero(tree.feature >= 0)[::-1]:
        left = tree.left[node]
        assert weight[left] >= min_weight and weight[left + 1] >= min_weight
        weight[node] = weight[left] + weight[left + 1]
        lightest = min(lightest, weight[left], weight[left + 1])
    return lightest


def arrays(ds):
    """Feature matrix and targets of ``ds``: class indices or float values."""
    if ds.task == "regression":
        return ds.feature_matrix(), np.asarray(ds.target_values(), dtype=np.float64)
    return ds.feature_matrix(), ds.class_indices(ds.classes)


def fit(ds, cfg, measure):
    """Train on the arrays of ``ds``, which also serves as the validation set."""
    X, y = arrays(ds)
    n_classes = len(ds.classes) if ds.task != "regression" else 1
    return train(X, y, X, y, ds.task, n_classes, cfg, measure)


class TestTraining:
    def _tiny(self, x, labels):
        return Dataset(
            (
                Column("x", "numeric", np.asarray(x, dtype=float)),
                Column("y", "categorical", np.asarray(labels, dtype=object)),
            ),
            "y",
            "binary",
        )

    def test_separable_binary_reaches_zero_error(self):
        x = np.concatenate([np.linspace(-1, -0.2, 20), np.linspace(0.2, 1, 20)])
        labels = ["neg"] * 20 + ["pos"] * 20
        ds = self._tiny(x, labels)
        cfg = GBTConfig(eta=0.3, max_depth=1, max_rounds=200, patience=20, seed=1)
        model = fit(ds, cfg, "mmce")
        assert min(model.valid_history) == 0.0
        assert model.best_iteration <= cfg.max_rounds

    def test_constant_regression_target(self):
        ds = Dataset(
            (
                Column("x", "numeric", np.arange(10.0)),
                Column("y", "numeric", np.full(10, 3.25)),
            ),
            "y",
            "regression",
        )
        cfg = GBTConfig(max_rounds=5, patience=2, seed=1)
        model = fit(ds, cfg, "rmse")
        assert model.valid_history[0] == 0.0
        assert model.best_iteration == 1
        preds = predict(model, ds.feature_matrix())
        np.testing.assert_array_equal(preds, np.full(10, float(model.base_score)))

    def test_best_iteration_is_earliest_minimum(self):
        ds = numeric_binary_dataset(80, seed=9)
        cfg = GBTConfig(eta=0.1, max_depth=2, max_rounds=60, patience=8, seed=2)
        model = fit(ds, cfg, "mmce")
        history = np.asarray(model.valid_history)
        assert model.best_iteration == int(np.argmin(history)) + 1
        # mmce histories plateau, so the tie rule is actually exercised
        assert np.sum(history == history.min()) >= 2

    def test_prefix_prediction_oracle(self):
        ds = numeric_binary_dataset(60, seed=4)
        cfg = GBTConfig(eta=0.2, max_depth=2, max_rounds=20, patience=20, seed=3)
        model = fit(ds, cfg, "mmce")
        X = ds.feature_matrix()
        from autoboost.gbt import _sigmoid, _tree_outputs

        raw = np.full(len(X), float(model.base_score))
        for r, group in enumerate(model.rounds[: model.best_iteration], start=1):
            raw = raw + _tree_outputs(group[0], X)
            p = _sigmoid(raw)
            expected = np.column_stack([1.0 - p, p])
            np.testing.assert_array_equal(
                predict(dataclasses.replace(model, best_iteration=r), X), expected
            )

    def test_predict_upto_zero_returns_base_score(self):
        ds = numeric_binary_dataset(60, seed=4)
        cfg = GBTConfig(max_rounds=5, patience=5, seed=3)
        model = fit(ds, cfg, "mmce")
        probs = predict(dataclasses.replace(model, best_iteration=0), ds.feature_matrix())
        assert np.unique(probs[:, 1]).size == 1

    def test_missing_value_follows_stored_default_direction(self):
        for default_left in (True, False):
            tree = Tree.from_lists(
                feature=[0, -1, -1], threshold=[0.5, 0.0, 0.0],
                default_left=[default_left, True, True], left=[1, -1, -1],
                value=[0.0, -1.0, 1.0],
            )
            model = BoostedModel(
                task="regression", base_score=np.asarray(0.0),
                rounds=((tree,),), best_iteration=1, valid_history=(0.0,),
                n_features=1,
            )
            out = predict(model, np.asarray([[np.nan]]))
            assert out[0] == (-1.0 if default_left else 1.0)

    def test_monotone_feature_transform_preserves_predictions(self):
        ds = numeric_binary_dataset(90, seed=12)
        cfg = GBTConfig(eta=0.2, max_depth=3, max_rounds=15, patience=15, seed=5)
        model_a = fit(ds, cfg, "mmce")
        cubed = Dataset(
            tuple(
                Column(c.name, c.kind, c.values**3 if c.name == "x1" else c.values)
                for c in ds.columns
            ),
            ds.target,
            ds.task,
        )
        model_b = fit(cubed, cfg, "mmce")
        np.testing.assert_array_equal(
            predict(model_a, ds.feature_matrix()), predict(model_b, cubed.feature_matrix())
        )

    def test_training_is_deterministic(self):
        ds = numeric_binary_dataset(70, seed=8)
        cfg = GBTConfig(
            eta=0.15, max_depth=4, subsample=0.7, colsample_bytree=0.8,
            colsample_bylevel=0.8, max_rounds=25, patience=25, seed=11,
        )
        a = fit(ds, cfg, "mmce")
        b = fit(ds, cfg, "mmce")
        np.testing.assert_array_equal(
            predict(a, ds.feature_matrix()), predict(b, ds.feature_matrix())
        )
        assert a.valid_history == b.valid_history

    def test_more_budget_never_worsens_best_validation(self):
        ds = numeric_binary_dataset(80, seed=13)
        values = []
        for max_rounds in (3, 8, 20, 50):
            cfg = GBTConfig(eta=0.1, max_depth=2, max_rounds=max_rounds, patience=max_rounds, seed=6)
            model = fit(ds, cfg, "mmce")
            values.append(min(model.valid_history))
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_multiclass_probabilities_are_stochastic(self):
        rng = np.random.default_rng(3)
        n = 90
        x = np.concatenate([rng.normal(-3, 0.5, 30), rng.normal(0, 0.5, 30), rng.normal(3, 0.5, 30)])
        y = np.asarray(["a"] * 30 + ["b"] * 30 + ["c"] * 30, dtype=object)
        ds = Dataset(
            (Column("x", "numeric", x), Column("y", "categorical", y)), "y", "multiclass"
        )
        cfg = GBTConfig(eta=0.3, max_depth=2, max_rounds=30, patience=10, seed=7)
        model = fit(ds, cfg, "mmce")
        probs = predict(model, ds.feature_matrix())
        assert probs.shape == (n, 3)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert min(model.valid_history) <= 0.05

    def test_error_cases(self):
        ds = binary_margin_dataset(40, seed=1)
        cfg = GBTConfig(max_rounds=2, seed=1)
        X, y = arrays(numeric_binary_dataset(40, seed=1))
        with pytest.raises(DataError, match="empty dataset"):
            train(X[:0], y[:0], X, y, "binary", 2, cfg, "mmce")
        with pytest.raises(DataError, match="zero rows"):
            train(X, y, X[:0], y[:0], "binary", 2, cfg, "mmce")
        with pytest.raises(DataError, match="no feature columns"):
            train(X[:, :0], y, X[:, :0], y, "binary", 2, cfg, "mmce")
        with pytest.raises(DataError, match="feature columns"):
            train(X, y, X[:, :1], y, "binary", 2, cfg, "mmce")
        with pytest.raises(DataError, match="categorical"):
            arrays(ds)  # categorical features present

    def test_predict_feature_count_mismatch(self):
        ds = binary_margin_dataset(40, seed=1)
        numeric = Dataset(
            tuple(c for c in ds.columns if c.kind == "numeric" or c.name == "label"),
            "label",
            "binary",
        )
        cfg = GBTConfig(max_rounds=2, seed=1)
        model = fit(numeric, cfg, "mmce")
        with pytest.raises(DataError, match="feature count"):
            predict(model, np.zeros((3, 5)))
