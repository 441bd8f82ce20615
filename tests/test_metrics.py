"""Measures: mmce, logloss, rmse."""

import math

import numpy as np
import pytest

from autoboost.data import DataError
from autoboost.metrics import logloss, mmce, resolve_measure, rmse


class TestMmce:
    def test_all_equal_is_zero(self):
        assert mmce(["a", "b", "c"], ["a", "b", "c"]) == 0.0

    def test_half_wrong(self):
        assert mmce(["a", "b"], ["a", "a"]) == 0.5

    def test_all_wrong(self):
        assert mmce(["b", "b", "b"], ["a", "a", "a"]) == 1.0

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            mmce(["a"], ["a", "b"])

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            mmce([], [])

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(0)
        pred = rng.choice(["a", "b", "c"], size=50)
        truth = rng.choice(["a", "b", "c"], size=50)
        base = mmce(pred, truth)
        for seed in range(10):
            perm = np.random.default_rng(seed).permutation(50)
            assert mmce(pred[perm], truth[perm]) == base


class TestLogloss:
    def test_perfect_probability_is_zero(self):
        # the upper clip at 1 - 1e-15 leaves a float-epsilon residue
        prob = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        assert logloss(prob, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_half_probability_is_ln2(self):
        assert logloss(np.asarray([[0.5, 0.5]]), [0]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_zero_probability_clips(self):
        value = logloss(np.asarray([[0.0, 1.0]]), [0])
        assert value == pytest.approx(-math.log(1e-15), abs=1e-9)

    def test_non_stochastic_rows_error(self):
        with pytest.raises(ValueError, match="sum to 1"):
            logloss(np.asarray([[0.7, 0.7]]), [0])

    def test_out_of_range_index_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            logloss(np.asarray([[0.5, 0.5]]), [2])

    def test_strictly_decreasing_in_true_probability(self):
        values = [logloss(np.asarray([[1.0 - p, p]]), [1]) for p in np.linspace(0.05, 0.95, 19)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestRmse:
    def test_identical_is_zero(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_closed_form(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(25.0 / 2.0), abs=1e-12)

    def test_single_element(self):
        assert rmse([5.0], [3.0]) == 2.0

    def test_length_mismatch_errors(self):
        with pytest.raises(ValueError):
            rmse([1.0], [1.0, 2.0])


class TestRegistry:
    def test_defaults_by_task(self):
        assert resolve_measure(None, "binary") == "mmce"
        assert resolve_measure(None, "multiclass") == "mmce"
        assert resolve_measure(None, "regression") == "rmse"

    def test_unknown_name_errors(self):
        with pytest.raises(ValueError, match="unknown measure"):
            resolve_measure("auc", "binary")

    @pytest.mark.parametrize("name,task", [
        ("rmse", "binary"), ("rmse", "multiclass"),
        ("mmce", "regression"), ("logloss", "regression"),
    ])
    def test_measure_of_another_task_errors(self, name, task):
        kind = "regression" if task == "regression" else "classification"
        with pytest.raises(DataError, match=f"measure '{name}' does not apply to {kind}"):
            resolve_measure(name, task)

    def test_named_measure_that_fits_is_kept(self):
        assert resolve_measure("logloss", "multiclass") == "logloss"
        assert resolve_measure("rmse", "regression") == "rmse"
