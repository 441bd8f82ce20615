"""Threshold search: decision rules, binary linesearch, multiclass annealing."""

import numpy as np
import pytest

from autoboost.metrics import mmce
from autoboost.threshold import (
    apply_thresholds,
    optimize_binary,
    optimize_multiclass_gsa,
)


def random_stochastic(rng, n, k):
    p = rng.uniform(0.05, 1.0, size=(n, k))
    return p / p.sum(axis=1, keepdims=True)


def simplex_grid_oracle(prob, truth, resolution=50):
    """Exhaustively evaluate every grid point of the probability simplex."""
    best = np.inf
    for a in range(1, resolution - 1):
        for b in range(1, resolution - a):
            c = resolution - a - b
            t = np.asarray([a, b, c], dtype=float) / resolution
            value = mmce(np.argmax(prob / t, axis=1), truth)
            if value < best:
                best = value
    return best


def rare_class_case(seed, n_per_class=30):
    """Three classes where argmax never picks class 2 but small t_2 does.

    Class-2 rows peak on class 0 with a solid class-2 runner-up; other rows
    have tiny class-2 mass, so lowering the class-2 divisor fixes the rare
    class without breaking the rest.
    """
    rng = np.random.default_rng(seed)
    rows, truth = [], []
    for i in range(n_per_class):
        p2 = rng.uniform(0.20, 0.30)
        p0 = rng.uniform(0.40, 0.45)
        rows.append([p0, 1.0 - p0 - p2, p2])
        truth.append(2)
    for cls in (0, 1):
        for i in range(n_per_class):
            dom = rng.uniform(0.6, 0.8)
            rest = 1.0 - dom
            p2 = rng.uniform(0.02, 0.06)
            other = rest - p2
            row = [0.0, 0.0, p2]
            row[cls] = dom
            row[1 - cls] = other
            rows.append(row)
            truth.append(cls)
    return np.asarray(rows), np.asarray(truth, dtype=np.intp)


class TestApplyThresholds:
    def test_uniform_equals_argmax(self):
        rng = np.random.default_rng(0)
        for k in (3, 4, 6):
            prob = random_stochastic(rng, 40, k)
            uniform = np.full(k, 1.0 / k)
            np.testing.assert_array_equal(
                apply_thresholds(prob, uniform), np.argmax(prob, axis=1)
            )

    def test_binary_cutoff(self):
        prob = np.asarray([[0.4, 0.6]])
        assert apply_thresholds(prob, np.asarray([0.5]))[0] == 1
        assert apply_thresholds(prob, np.asarray([0.7]))[0] == 0

    def test_ratio_rule_example(self):
        prob = np.asarray([[0.5, 0.3, 0.2]])
        t = np.asarray([0.5, 0.25, 0.25])
        # ratios (1.0, 1.2, 0.8) select the middle class
        assert apply_thresholds(prob, t)[0] == 1

    def test_ties_take_lowest_class_index(self):
        prob = np.asarray([[0.3, 0.3, 0.4]])
        t = np.asarray([0.3, 0.3, 0.4])
        assert apply_thresholds(prob, t)[0] == 0

    def test_scaling_invariance_before_normalization(self):
        rng = np.random.default_rng(1)
        prob = random_stochastic(rng, 50, 4)
        t = rng.uniform(0.1, 0.9, size=4)
        base = apply_thresholds(prob, t)
        for c in (0.1, 2.0, 37.5):
            np.testing.assert_array_equal(apply_thresholds(prob, c * t), base)

    def test_k_mismatch_errors(self):
        prob = np.asarray([[0.5, 0.3, 0.2]])
        with pytest.raises(ValueError, match="does not match"):
            apply_thresholds(prob, np.asarray([0.5, 0.5, 0.5, 0.5]))


class TestOptimizeBinary:
    def test_separable_with_margin_reaches_zero(self):
        prob = np.concatenate([np.linspace(0.05, 0.3, 20), np.linspace(0.5, 0.95, 20)])
        truth = np.asarray([0] * 20 + [1] * 20)
        tv, value = optimize_binary(prob, truth)
        assert value == 0.0
        assert 0.3 < tv[0] < 0.5

    def test_all_positive_truth(self):
        rng = np.random.default_rng(2)
        prob = rng.uniform(0.2, 0.9, size=30)
        truth = np.ones(30, dtype=np.intp)
        tv, value = optimize_binary(prob, truth)
        assert value == 0.0
        assert tv[0] <= prob.min()

    def test_never_worse_than_default_cutoff(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            prob = rng.uniform(size=n)
            truth = rng.integers(0, 2, size=n)
            _, value = optimize_binary(prob, truth)
            default = mmce((prob >= 0.5).astype(np.intp), truth)
            assert value <= default

    def test_already_optimal_at_default(self):
        prob = np.asarray([0.1, 0.2, 0.8, 0.9])
        truth = np.asarray([0, 0, 1, 1])
        _, value = optimize_binary(prob, truth)
        assert value == mmce((prob >= 0.5).astype(np.intp), truth) == 0.0

    def test_non_binary_truth_errors(self):
        with pytest.raises(ValueError, match="0/1"):
            optimize_binary(np.asarray([0.2, 0.5]), np.asarray([0, 2]))


class TestOptimizeMulticlassGsa:
    def test_deterministic_per_seed(self):
        prob, truth = rare_class_case(5)
        a = optimize_multiclass_gsa(prob, truth, seed=42)
        b = optimize_multiclass_gsa(prob, truth, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1] == b[1]

    def test_start_already_optimal_returns_start_value(self):
        prob = np.asarray([
            [0.8, 0.1, 0.1],
            [0.1, 0.8, 0.1],
            [0.1, 0.1, 0.8],
        ])
        truth = np.asarray([0, 1, 2])
        _, value = optimize_multiclass_gsa(prob, truth, seed=1)
        assert value == 0.0
        assert type(value) is float

    def test_rare_class_beats_argmax_and_matches_grid_oracle(self):
        prob, truth = rare_class_case(7)
        argmax_value = mmce(np.argmax(prob, axis=1), truth)
        tv, value = optimize_multiclass_gsa(prob, truth, seed=3)
        assert value < argmax_value
        oracle = simplex_grid_oracle(prob, truth)
        assert value <= oracle + 1.0 / len(truth)

    def test_never_worse_than_uniform(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n = int(rng.integers(6, 40))
            prob = random_stochastic(rng, n, 3)
            truth = rng.integers(0, 3, size=n)
            _, value = optimize_multiclass_gsa(prob, truth, seed=trial)
            uniform = mmce(np.argmax(prob, axis=1), truth)
            assert value <= uniform

    def test_requires_three_classes(self):
        with pytest.raises(ValueError, match="K>=3"):
            optimize_multiclass_gsa(np.asarray([[0.4, 0.6]]), np.asarray([0]))

    def test_requires_rows(self):
        with pytest.raises(ValueError, match="non-empty"):
            optimize_multiclass_gsa(np.empty((0, 3)), np.empty(0, dtype=int))

    # Lengths n - 1 and 1, and n entries as a column: a length-1 truth would
    # otherwise broadcast against every row.
    @pytest.mark.parametrize("cut", [slice(4), slice(1), (slice(5), None)])
    def test_truth_must_hold_one_entry_per_row(self, cut):
        prob, truth = rare_class_case(5)
        with pytest.raises(ValueError, match="1-D truth vector of 5 entries"):
            optimize_multiclass_gsa(prob[:5], truth[cut], seed=1)
