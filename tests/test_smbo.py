"""Tuner: space decoding, LHS design, GP surrogate, EI, proposal loop."""

import itertools
import math

import numpy as np
import pytest

from autoboost.smbo import (
    SPACE,
    TuneError,
    _dedup,
    _nll_and_grad,
    decode_config,
    ei_value,
    gp_fit,
    history_csv,
    initial_design,
    propose_point,
    tune,
)


class TestDecode:
    def test_log2_lower_corner(self):
        values = decode_config(np.zeros(8))
        assert values["gamma"] == 2.0**-7
        assert values["lambda"] == 2.0**-10
        assert values["alpha"] == 2.0**-10

    def test_plain_upper_corner(self):
        values = decode_config(np.ones(8))
        assert values["eta"] == 0.2
        assert values["gamma"] == 2.0**6
        assert values["max_depth"] == 20

    def test_integer_rounds_half_away_from_zero(self):
        point = np.zeros(8)
        point[2] = 0.5  # raw 11.5
        assert decode_config(point)["max_depth"] == 12

    def test_out_of_cube_errors(self):
        bad = np.zeros(8)
        bad[0] = 1.5
        with pytest.raises(ValueError, match="lie in"):
            decode_config(bad)

    @pytest.mark.parametrize("length", [7, 9])
    def test_wrong_length_errors(self, length):
        with pytest.raises(ValueError, match="point must have length 8"):
            decode_config(np.zeros(length))


class TestInitialDesign:
    def test_latin_hypercube_strata(self):
        pts = initial_design(4, seed=3)
        assert pts.shape == (4, 8)
        for j in range(8):
            strata = np.floor(pts[:, j] * 4).astype(int)
            assert sorted(strata.tolist()) == [0, 1, 2, 3]

    def test_single_point_inside_cube(self):
        pts = initial_design(1, seed=5)
        assert np.all((pts > 0.0) & (pts < 1.0))

    def test_different_seeds_differ(self):
        a = initial_design(6, seed=1)
        b = initial_design(6, seed=2)
        assert not np.array_equal(a, b)

    def test_same_seed_identical(self):
        np.testing.assert_array_equal(initial_design(6, seed=9), initial_design(6, seed=9))


class TestGP:
    def test_interpolates_noiseless_points(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            X = rng.uniform(size=(10, 8))
            y = 4.0 * rng.normal(size=10) + 7.0
            gp = gp_fit(X, y, seed=seed)
            mu, _ = gp.posterior(X)
            value_range = y.max() - y.min()
            assert np.max(np.abs(mu - y)) < 1e-3
            assert np.max(np.abs(mu - y)) < 1e-4 * max(value_range, 1.0) * 10

    def test_constant_values_degenerate(self):
        X = np.random.default_rng(0).uniform(size=(6, 8))
        gp = gp_fit(X, np.full(6, 2.5))
        assert gp.degenerate
        mu, sd = gp.posterior(X)
        np.testing.assert_array_equal(mu, np.full(6, 2.5))
        np.testing.assert_array_equal(sd, np.zeros(6))

    def test_posterior_sd_smaller_at_training_point_than_far_corner(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.2, 0.8, size=(12, 8))
        y = np.sin(X.sum(axis=1))
        gp = gp_fit(X, y, seed=1)
        corners = np.asarray(list(itertools.product((0.0, 1.0), repeat=8)))
        dists = np.min(np.linalg.norm(corners[:, None, :] - X[None, :, :], axis=-1), axis=1)
        far_corner = corners[int(np.argmax(dists))]
        _, sd_train = gp.posterior(X)
        _, sd_far = gp.posterior(far_corner[None, :])
        assert np.max(sd_train) <= sd_far[0]

    def test_nll_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(9, 4))
        y = rng.normal(size=9)
        z = (y - y.mean()) / y.std()
        theta = np.concatenate([rng.uniform(-1.0, 0.5, size=4), [0.3]])
        nll, grad = _nll_and_grad(theta, X, z, 1e-8)
        for j in range(len(theta)):
            step = np.zeros_like(theta)
            step[j] = 1e-6
            up, _ = _nll_and_grad(theta + step, X, z, 1e-8)
            dn, _ = _nll_and_grad(theta - step, X, z, 1e-8)
            fd = (up - dn) / 2e-6
            assert abs(fd - grad[j]) / max(abs(fd), 1e-6) < 1e-4

    def test_too_few_points_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            gp_fit(np.zeros((1, 8)), np.zeros(1))

    def test_nonfinite_values_error(self):
        with pytest.raises(ValueError, match="finite"):
            gp_fit(np.zeros((3, 2)), np.asarray([1.0, np.inf, 2.0]))

    def test_duplicate_points_handled_by_nugget(self):
        X = np.vstack([np.full((4, 3), 0.5), np.full((4, 3), 0.5)])
        y = np.asarray([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        gp = gp_fit(X, y, seed=0)  # conflicting duplicates must not raise
        assert gp.noise_var <= 1e-2


class TestExpectedImprovement:
    def test_zero_sd_at_best_is_zero(self):
        assert ei_value(0.0, 0.0, 0.0) == 0.0

    def test_at_best_with_unit_sd_is_phi_zero(self):
        assert ei_value(0.0, 1.0, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)

    def test_nonnegative_everywhere_on_fitted_surrogate(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(15, 8))
        y = (X**2).sum(axis=1)
        gp = gp_fit(X, y, seed=2)
        pts = rng.uniform(size=(1000, 8))
        mu, sd = gp.posterior(pts)
        assert np.all(ei_value(mu, sd, float(y.min())) >= 0.0)


def sphere(u):
    return float(np.sum((np.asarray(u) - 0.5) ** 2))


class TestProposeAndTune:
    def test_budget_exhausted_errors(self):
        state = tune(sphere, budget=4, n_init=4, seed=1)
        with pytest.raises(TuneError, match="budget"):
            propose_point(state)

    def test_dedup_perturbs_duplicates(self):
        rng = np.random.default_rng(0)
        pt = np.full(8, 0.25)
        out = _dedup(pt.copy(), np.asarray([pt]), rng)
        assert np.max(np.abs(out - pt)) > 1e-9
        assert np.max(np.abs(out - pt)) <= 1e-3

    def test_proposals_never_duplicate_evaluated_points(self):
        state = tune(sphere, budget=25, n_init=8, seed=4)
        pts = np.asarray([r.point for r in state.evaluated])
        for i in range(len(pts)):
            others = np.delete(pts, i, axis=0)
            assert np.min(np.abs(others - pts[i]).max(axis=1)) > 1e-9

    def test_budget_equals_n_init_returns_best_of_design(self):
        calls = []

        def obj(u):
            calls.append(np.asarray(u))
            return sphere(u)

        state = tune(obj, budget=6, n_init=6, seed=2)
        assert len(calls) == 6
        assert len(state.evaluated) == 6
        design = initial_design(6, seed=2)
        np.testing.assert_array_equal(np.asarray(calls), design)
        assert state.incumbent.value == min(sphere(p) for p in design)

    def test_deadline_zero_runs_single_evaluation(self):
        calls = []

        def obj(u):
            calls.append(1)
            return sphere(u)

        state = tune(obj, budget=30, n_init=8, seed=3, deadline=0.0)
        assert len(calls) == 1
        assert state.incumbent.value == state.evaluated[0].value

    def test_nonfinite_values_get_penalized(self):
        def obj(u):
            u = np.asarray(u)
            return math.inf if u[0] > 0.5 else sphere(u)

        state = tune(obj, budget=12, n_init=8, seed=5)
        values = [r.value for r in state.evaluated]
        assert all(math.isfinite(v) for v in values)
        init_records = state.evaluated[:8]
        finite_init = [sphere(r.point) for r in init_records if r.point[0] <= 0.5]
        worst, best = max(finite_init), min(finite_init)
        expected_penalty = worst + (worst - best)
        init_penalized = [r for r in init_records if r.point[0] > 0.5]
        assert init_penalized
        # every initial-design failure shares the post-init penalty value
        assert all(abs(r.value - expected_penalty) < 1e-12 for r in init_penalized)
        # penalties are strictly worse than the incumbent
        assert state.incumbent.value < expected_penalty
        assert state.incumbent.value == min(values)

    def test_penalties_come_from_returned_values_only(self):
        # 8 design successes, then failures: each penalty is worst + range of
        # the 8 returned values, not of earlier penalties, so none escalates.
        returned = []

        def obj(u):
            if len(returned) == 8:
                return math.nan
            returned.append(sphere(u))
            return returned[-1]

        state = tune(obj, budget=14, n_init=8, seed=1)
        worst, best = max(returned), min(returned)
        penalties = [r.value for r in state.evaluated[8:]]
        assert penalties == [worst + (worst - best)] * 6

    def test_all_nonfinite_initial_design_errors(self):
        with pytest.raises(TuneError, match="non-finite"):
            tune(lambda u: math.nan, budget=8, n_init=4, seed=1)

    def test_run_is_deterministic(self):
        a = tune(sphere, budget=22, n_init=8, seed=7)
        b = tune(sphere, budget=22, n_init=8, seed=7)
        assert [r.value for r in a.evaluated] == [r.value for r in b.evaluated]
        np.testing.assert_array_equal(
            np.asarray([r.point for r in a.evaluated]),
            np.asarray([r.point for r in b.evaluated]),
        )

    def test_incumbent_value_is_running_minimum(self):
        state = tune(sphere, budget=20, n_init=8, seed=9)
        values = np.asarray([r.value for r in state.evaluated])
        assert state.incumbent.value == values.min()
        running = np.minimum.accumulate(values)
        assert np.all(np.diff(running) <= 0.0)

    def test_budget_below_n_init_errors(self):
        with pytest.raises(TuneError, match="budget"):
            tune(sphere, budget=4, n_init=8, seed=1)

    def test_proposals_concentrate_on_active_dimension(self):
        # Objective depends on one coordinate only; model-based proposals
        # should sit closer to its minimizer than uniform random points do.
        def quad(u):
            return float((np.asarray(u)[0] - 0.3) ** 2)

        smbo_dists, random_dists = [], []
        for seed in range(1, 21):
            state = tune(quad, budget=22, n_init=16, seed=seed)
            proposals = np.asarray([r.point for r in state.evaluated[16:]])
            smbo_dists.append(np.median(np.abs(proposals[:, 0] - 0.3)))
            rng = np.random.default_rng(seed)
            random_dists.append(np.median(np.abs(rng.uniform(size=len(proposals)) - 0.3)))
        assert np.median(smbo_dists) < np.median(random_dists)

    def test_decoded_configs_stay_inside_tuned_ranges(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            values = decode_config(rng.uniform(size=8))
            assert 0.01 <= values["eta"] <= 0.2
            assert 2.0**-7 <= values["gamma"] <= 2.0**6
            assert values["max_depth"] in range(3, 21)
            assert 0.5 <= values["colsample_bytree"] <= 1.0
            assert 0.5 <= values["colsample_bylevel"] <= 1.0
            assert 2.0**-10 <= values["lambda"] <= 2.0**10
            assert 2.0**-10 <= values["alpha"] <= 2.0**10
            assert 0.5 <= values["subsample"] <= 1.0

    def test_smbo_beats_random_search_on_sphere(self):
        smbo_vals, random_vals = [], []
        for seed in range(1, 8):
            state = tune(sphere, budget=30, n_init=12, seed=seed)
            smbo_vals.append(state.incumbent.value)
            rng = np.random.default_rng(seed)
            random_vals.append(min(sphere(p) for p in rng.uniform(size=(30, 8))))
        assert np.median(smbo_vals) < np.median(random_vals)

    def test_history_csv_layout(self):
        state = tune(sphere, budget=5, n_init=5, seed=1)
        text = history_csv([vars(rec) for rec in state.evaluated])
        lines = text.strip().split("\n")
        assert lines[0] == "iteration," + ",".join(p.name for p in SPACE) + ",objective,seconds"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1"
        assert len(first) == 11
