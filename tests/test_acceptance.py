"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every tolerance and time limit is pinned here.
"""

import itertools
import time

import numpy as np
import pytest

from autoboost.cli import bootstrap_minima
from autoboost.data import Column, Dataset, majority_baseline
from autoboost.encoding import fit_encoders, transform
from autoboost.gbt import build_tree, loss_grad_hess
from autoboost.metrics import mmce
from autoboost.pipeline import (
    FORMAT_VERSION,
    AutoConfig,
    BundleError,
    BundleVersionError,
    autogbt_fit,
    autogbt_predict,
    load,
    save,
)
from autoboost.smbo import decode_config, ei_value, gp_fit, tune
from autoboost.threshold import optimize_binary, optimize_multiclass_gsa

from conftest import binary_margin_dataset
from test_gbt import (
    assert_split_matches_oracle,
    central_diff,
    depth1_oracle,
    logistic_loss,
    rel_err,
    second_diff,
    softmax_loss,
    squared_loss,
)
from test_threshold import rare_class_case, simplex_grid_oracle


class Timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, f"took {self.elapsed:.2f}s, limit {self.limit}s"
        return False


def report(n, text, timer):
    print(f"PASS criterion {n}: {text} ({timer.elapsed:.2f}s)")


def test_criterion_1_loss_derivatives_match_finite_differences():
    with Timer(1.0) as t:
        rng = np.random.default_rng(101)
        for _ in range(20):
            f, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            if abs(f - y) < 1e-3:
                f += 0.01
            g, h = loss_grad_hess("regression", np.asarray([f]), np.asarray([y]))
            assert rel_err(g[0], central_diff(lambda s: squared_loss(s, y), f, 1e-6)) < 1e-5
            assert rel_err(h[0], second_diff(lambda s: squared_loss(s, y), f, 1e-4)) < 1e-5
        for _ in range(20):
            f, y = rng.uniform(-2, 2), float(rng.integers(0, 2))
            g, h = loss_grad_hess("binary", np.asarray([f]), np.asarray([y]))
            assert rel_err(g[0], central_diff(lambda s: logistic_loss(s, y), f, 1e-6)) < 1e-5
            assert rel_err(h[0], second_diff(lambda s: logistic_loss(s, y), f, 1e-4)) < 1e-5
        for k in (2, 3, 5):
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
    report(1, "loss gradients/hessians match central finite differences (rel < 1e-5)", t)


def test_criterion_2_depth1_tree_matches_exhaustive_oracle():
    with Timer(5.0) as t:
        rng = np.random.default_rng(202)
        for case in range(50):
            n = int(rng.integers(4, 31))
            d = int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            if case % 2 == 0:
                X[rng.uniform(size=(n, d)) < 0.2] = np.nan
            g = rng.normal(size=n)
            h = np.ones(n)
            tree = build_tree(
                X, g, h, max_depth=1, reg_lambda=0.0, reg_alpha=0.0, gamma=0.0, eta=1.0
            )
            oracle, margin = depth1_oracle(X, g, h, 0.0)
            if tree.feature[0] < 0:
                assert oracle is None or oracle[0] <= 0.0
                continue
            assert_split_matches_oracle(tree, oracle, margin, X, g, h)
    report(2, "depth-1 splits match the exhaustive oracle on 50 datasets (exact up to gain ties)", t)


def test_criterion_3_impact_encoding_matches_group_by_oracle():
    with Timer(1.0) as t:
        rng = np.random.default_rng(303)
        for case in range(50):
            n = int(rng.integers(6, 51))
            n_levels = int(rng.integers(2, 9))
            cat = rng.choice([f"l{i}" for i in range(n_levels)], size=n).astype(object)
            regression = case % 2 == 1
            if regression:
                yv = rng.normal(size=n)
                target = Column("y", "numeric", yv)
                task = "regression"
            else:
                yv = rng.choice(["c0", "c1"], size=n).astype(object)
                while len(set(yv.tolist())) < 2:
                    yv = rng.choice(["c0", "c1"], size=n).astype(object)
                target = Column("y", "categorical", yv)
                task = "binary"
            ds = Dataset((Column("f", "categorical", cat), target), "y", task)
            enc = fit_encoders(ds, k=2, high_card_strategy="impact", m=0.0)
            ce = enc[0]
            if regression:
                ybar = yv.mean()
                for level in ce.levels:
                    member = cat == level
                    assert abs(ce.table[ce.levels.index(level)][0] - yv[member].mean()) <= 1e-12
                assert abs(ce.table[-1][0] - ybar) <= 1e-12
            else:
                classes = ds.classes
                n_total = len(yv)
                for level in ce.levels:
                    member = cat == level
                    for ci, c in enumerate(classes):
                        want = np.sum(yv[member] == c) / np.sum(member)
                        assert abs(ce.table[ce.levels.index(level)][ci] - want) <= 1e-12
                for ci, c in enumerate(classes):
                    assert abs(ce.table[-1][ci] - np.sum(yv == c) / n_total) <= 1e-12

        # dummy indicators partition each row
        cat = rng.choice(["a", "b", "c", "__NA__"], size=30).astype(object)
        y = rng.choice(["0", "1"], size=30).astype(object)
        ds = Dataset((Column("f", "categorical", cat), Column("y", "categorical", y)), "y", "binary")
        enc = fit_encoders(ds, k=10)
        out = transform(enc, ds)
        block = np.column_stack([c.values for c in out.feature_columns])
        assert np.allclose(block.sum(axis=1), 1.0)

        # unseen level falls back to the global prior
        ds2 = Dataset(
            (
                Column("f", "categorical", np.asarray(["a", "a", "b", "b"], dtype=object)),
                Column("y", "categorical", np.asarray(["1", "0", "1", "1"], dtype=object)),
            ),
            "y",
            "binary",
        )
        enc2 = fit_encoders(ds2, k=2, high_card_strategy="impact", m=0.0)
        new = Dataset(
            (
                Column("f", "categorical", np.asarray(["z"], dtype=object)),
                Column("y", "categorical", np.asarray(["1"], dtype=object)),
            ),
            "y",
            "binary",
        )
        out2 = transform(enc2, new)
        got = [c.values[0] for c in out2.feature_columns]
        assert got == [0.25, 0.75]  # global priors of classes ("0", "1")
    report(3, "impact encoding equals the group-by oracle (1e-12); dummy and fallback rules hold", t)


def test_criterion_4_gp_interpolation_and_ei_closed_form():
    with Timer(5.0) as t:
        rng = np.random.default_rng(404)
        X = rng.uniform(size=(10, 8))
        y = 3.0 * rng.normal(size=10) + 10.0
        gp = gp_fit(X, y, seed=4)
        mu, _ = gp.posterior(X)
        assert np.max(np.abs(mu - y)) < 1e-3
        assert ei_value(0.0, 1.0, 0.0) == pytest.approx(0.398942, abs=1e-6)
        pts = rng.uniform(size=(1000, 8))
        mu, sd = gp.posterior(pts)
        assert np.all(ei_value(mu, sd, float(y.min())) >= 0.0)
    report(4, "GP interpolates 10 noiseless points (<1e-3); EI closed form and nonnegativity hold", t)


def test_criterion_5_smbo_beats_random_search_on_sphere():
    def sphere(u):
        return float(np.sum((np.asarray(u) - 0.5) ** 2))

    with Timer(30.0) as t:
        smbo_vals, random_vals = [], []
        for seed in range(1, 21):
            state = tune(sphere, budget=40, n_init=16, seed=seed)
            smbo_vals.append(state.incumbent.value)
            rng = np.random.default_rng(seed)
            random_vals.append(min(sphere(p) for p in rng.uniform(size=(40, 8))))
        assert np.median(smbo_vals) < np.median(random_vals)
    report(
        5,
        f"SMBO median {np.median(smbo_vals):.4f} beats random-search median "
        f"{np.median(random_vals):.4f} over 20 seeds",
        t,
    )


def test_criterion_6_decode_reproduces_table_bounds():
    with Timer(1.0) as t:
        lo = decode_config(np.zeros(8))
        hi = decode_config(np.ones(8))
        assert lo["gamma"] == 2.0**-7 and hi["gamma"] == 2.0**6
        assert lo["lambda"] == 2.0**-10 and hi["lambda"] == 2.0**10
        assert lo["alpha"] == 2.0**-10 and hi["alpha"] == 2.0**10
        assert lo["eta"] == 0.01 and hi["eta"] == 0.2
        assert lo["max_depth"] == 3 and hi["max_depth"] == 20
        assert lo["colsample_bytree"] == 0.5 and hi["colsample_bytree"] == 1.0
        assert lo["colsample_bylevel"] == 0.5 and hi["colsample_bylevel"] == 1.0
        assert lo["subsample"] == 0.5 and hi["subsample"] == 1.0
        for bits in itertools.product((0.0, 1.0), repeat=8):
            values = decode_config(np.asarray(bits))
            assert values["max_depth"] in range(3, 21)
    report(6, "decode_config reproduces the tuning-space bounds exactly at the corners", t)


def test_criterion_7_threshold_optimizers_never_worse_and_match_oracle():
    with Timer(30.0) as t:
        rng = np.random.default_rng(707)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            prob = rng.uniform(size=n)
            truth = rng.integers(0, 2, size=n)
            _, value = optimize_binary(prob, truth)
            assert value <= mmce((prob >= 0.5).astype(np.intp), truth)
        for trial in range(100):
            n = int(rng.integers(6, 40))
            p = rng.uniform(0.05, 1.0, size=(n, 3))
            p /= p.sum(axis=1, keepdims=True)
            truth = rng.integers(0, 3, size=n)
            _, value = optimize_multiclass_gsa(p, truth, seed=trial)
            assert value <= mmce(np.argmax(p, axis=1), truth)
        for seed in range(1, 11):
            prob, truth = rare_class_case(seed)
            tv, value = optimize_multiclass_gsa(prob, truth, seed=seed)
            oracle = simplex_grid_oracle(prob, truth)
            assert value <= oracle + 1.0 / len(truth)
    report(7, "threshold optimizers never lose to defaults; GSA matches the simplex-grid oracle", t)


def test_criterion_8_end_to_end_binary_pipeline():
    with Timer(120.0) as t:
        train = binary_margin_dataset(500, seed=88, missing=0.05)
        test = binary_margin_dataset(250, seed=89, missing=0.05)
        cfg = AutoConfig(budget=20, deadline=120.0, seed=8)
        model = autogbt_fit(train, cfg)
        preds = autogbt_predict(model, test)
        error = float(np.mean(np.asarray(preds.labels, dtype=object) != test.target_values()))
        baseline = majority_baseline(train, test)
        assert error <= 0.05
        assert error < baseline
        again = autogbt_predict(autogbt_fit(train, cfg), test)
        np.testing.assert_array_equal(preds.probabilities, again.probabilities)
        assert preds.labels == again.labels
    report(
        8,
        f"end-to-end pipeline reaches test mmce {error:.3f} <= 0.05 "
        f"(baseline {baseline:.3f}), deterministic per seed",
        t,
    )


def test_criterion_9_bootstrap_aggregate_analytic_case():
    with Timer(2.0) as t:
        runs = [0.0] + [1.0] * 24
        minima = bootstrap_minima(runs, B=100_000, size=4, seed=9)
        assert float(np.median(minima)) == 1.0
        p_zero = float(np.mean(minima == 0.0))
        assert abs(p_zero - 0.1507) < 0.01
    report(9, f"bootstrap best-of-4 median 1.0 with P(min=0) = {p_zero:.4f} (analytic 0.1507)", t)


def test_criterion_10_bundle_roundtrip_and_tamper_detection(tmp_path):
    with Timer(60.0) as t:
        train = binary_margin_dataset(200, seed=10, missing=0.05)
        cfg = AutoConfig(budget=8, deadline=60.0, max_rounds=40, patience=5, seed=10)
        model = autogbt_fit(train, cfg)
        path = tmp_path / "model.bundle"
        save(model, path)
        loaded = load(path)
        rng = np.random.default_rng(1000)
        n = 100
        newdata = Dataset(
            (
                Column("x1", "numeric", rng.uniform(-1, 1, size=n)),
                Column("x2", "numeric", np.where(rng.uniform(size=n) < 0.15, np.nan, rng.normal(size=n))),
                Column("c1", "categorical", rng.choice(["a", "b", "NEW", "__NA__"], size=n).astype(object)),
                Column("c2", "categorical", rng.choice(["u", "v", "w2"], size=n).astype(object)),
            ),
            None,
            None,
        )
        a = autogbt_predict(model, newdata)
        b = autogbt_predict(loaded, newdata)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.labels == b.labels

        import json

        text = path.read_text()
        (tmp_path / "trunc.bundle").write_text(text[: len(text) // 3])
        with pytest.raises(BundleError):
            load(tmp_path / "trunc.bundle")
        doc = json.loads(text)
        doc["payload"]["measure"] = "tampered"
        (tmp_path / "tampered.bundle").write_text(json.dumps(doc))
        with pytest.raises(BundleError):
            load(tmp_path / "tampered.bundle")
        for version in (FORMAT_VERSION + 1, 1, 2, 3):
            doc = json.loads(text)
            doc["version"] = version
            (tmp_path / "foreign.bundle").write_text(json.dumps(doc))
            with pytest.raises(BundleVersionError):
                load(tmp_path / "foreign.bundle")
    report(10, "bundle round-trips bit-identically; tampering and foreign versions raise", t)
