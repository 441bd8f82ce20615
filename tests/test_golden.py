"""Golden determinism check: fixed fits must reproduce pinned digests.

Each case fits a small pipeline with a fixed seed and a budget above the
16-point initial design, so at least one GP-guided proposal is evaluated,
then predicts on a second sample with NaNs and unseen categorical levels.
The SHA-256 digests below pin the predicted probability bytes, the labels,
the tuning history values, the early-stopping record of the incumbent, and
the canonical bundle payload with each evaluation's wall-clock ``elapsed``
removed, the one part of a bundle that differs between two fits.
A refactor that keeps the booster's arithmetic must reproduce them exactly;
any change in split choice, RNG draws, leaf weights or tuning order shows up
as a different digest.
"""

import csv
import hashlib

import numpy as np
import pytest

from autoboost.cli import main
from autoboost.data import Column, Dataset
from autoboost.pipeline import AutoConfig, _canonical, _to_json, autogbt_fit, autogbt_predict
from autoboost.smbo import tune
from autoboost.threshold import optimize_binary, optimize_multiclass_gsa

CFG = AutoConfig(budget=17, deadline=600.0, max_rounds=8, patience=4, seed=5)

# A categorical column with more levels than the default cardinality
# threshold k = 10, so it goes through impact encoding.
LEVELS = [f"lv{i:02d}" for i in range(14)]


def mixed_dataset(n, seed, classes):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    x2[rng.uniform(size=n) < 0.15] = np.nan
    cat = rng.choice(LEVELS, size=n).astype(object)
    cat[rng.uniform(size=n) < 0.1] = "__NA__"
    level_effect = np.asarray([int(c[2:]) if c != "__NA__" else 7 for c in cat]) / 7.0 - 1.0
    signal = x1 + 0.5 * np.nan_to_num(x2) + level_effect + rng.normal(scale=0.3, size=n)
    edges = np.quantile(signal, np.linspace(0, 1, len(classes) + 1)[1:-1])
    y = np.asarray(classes, dtype=object)[np.searchsorted(edges, signal)]
    task = "binary" if len(classes) == 2 else "multiclass"
    return Dataset(
        (
            Column("x1", "numeric", x1),
            Column("x2", "numeric", x2),
            Column("cat", "categorical", cat),
            Column("y", "categorical", y),
        ),
        "y",
        task,
    )


def features_only(ds, unseen_seed):
    """Drop the target and swap some categorical cells for an unseen level."""
    rng = np.random.default_rng(unseen_seed)
    cols = []
    for c in ds.feature_columns:
        values = c.values.copy()
        if c.kind == "categorical":
            values[rng.uniform(size=len(values)) < 0.1] = "never-seen"
        cols.append(Column(c.name, c.kind, values))
    return Dataset(tuple(cols), None, None)


def sha(text_or_bytes):
    data = text_or_bytes if isinstance(text_or_bytes, bytes) else text_or_bytes.encode()
    return hashlib.sha256(data).hexdigest()


def digests(classes):
    train = mixed_dataset(160, seed=41, classes=classes)
    score = features_only(mixed_dataset(120, seed=42, classes=classes), unseen_seed=43)
    model = autogbt_fit(train, CFG)
    preds = autogbt_predict(model, score)
    payload = _to_json(model)
    payload["history"] = dict(payload["history"], evaluations=[
        {k: v for k, v in e.items() if k != "elapsed"} for e in payload["history"]["evaluations"]
    ])
    return {
        "probabilities": sha(np.ascontiguousarray(preds.probabilities, dtype="<f8").tobytes()),
        "labels": sha("\n".join(preds.labels)),
        "history": sha(",".join(repr(e["value"]) for e in model.history["evaluations"])),
        "early_stopping": sha(
            repr(model.model.best_iteration) + ":" + ",".join(map(repr, model.model.valid_history))
        ),
        "payload": sha(_canonical(payload)),
    }


GOLDEN = {
    "binary": {
        "probabilities": "82764bffd50d61b2d22c4d0f11ddebf4c333ec31e95f2b124ea96da6b584a7d0",
        "labels": "a2b363ad382faa820e0aced04ae1b7f86edafd46f22ff37c304e09033bba9aa5",
        "history": "a42b067a8d60292319c2f2de89f97d49f0420577ea16900363620fecae75ee19",
        "early_stopping": "b148c11115a7d6e994e16a2929b64452fbc2c52eb3e64a07fd9f3ecbde40f154",
        "payload": "efc5641585c219207eaf1dad3b9f6fc9ece03823bf1b80ce5b1789501c50dd95",
    },
    "multiclass": {
        "probabilities": "6694a32f88786fe480b4ade902f8f7857b22b744c0c12b52f8ac0b003c4a3f0d",
        "labels": "aff896279af5f80b8fa90c055e3496ef574a0d7b60df1adcfad6d74f9ff8ab84",
        "history": "3cb61c5ab79410e3e804e3b0a0ddc76ed346ed1b315557ab64452f2cae34329c",
        "early_stopping": "9039e7638847e11892de73ab3fc0e73241596f1f10d4b87c38352fb2fbc4308a",
        "payload": "52ba5b3a34dfb587f0ceb1dcd6421a9436d97481b7574e4df6b9504a4639e43a",
    },
}


@pytest.mark.parametrize(
    "case,classes", [("binary", ["neg", "pos"]), ("multiclass", ["a", "b", "c"])]
)
def test_golden_digests(case, classes):
    assert digests(classes) == GOLDEN[case]


# Through the files: ``autoboost fit`` reads a CSV and ``autoboost predict``
# writes one, so this digest pins CSV parsing, column kind inference and the
# predictions writer on top of the fit. The cells hold every default NA token
# (``""``, ``NA`` and ``?``), a quoted level with a comma in it, and the
# scoring file holds levels the fit never saw. Its budget of 6 stays inside
# the initial design; the cases above pin the GP-guided steps.
CSV_LEVELS = ["north", "south", "east, inner", "west"]
CSV_GOLDEN = "1e43c722fae74f6c4e349c4bde44db7ace44cc3c3ce04efc5a24b820af748f76"


def write_mixed_csv(path, n, seed, with_target):
    rng = np.random.default_rng(seed)
    na = ["", "NA", "?"]
    zones = CSV_LEVELS + ([] if with_target else ["unseen", "far, away"])
    lvs = LEVELS + ([] if with_target else ["lv99"])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "zone", "y", "x2", "lv"] if with_target else ["x1", "zone", "x2", "lv"])
        for i in range(n):
            x1, x2, noise = rng.normal(size=3)
            zone = zones[int(rng.integers(len(zones)))]
            lv = lvs[int(rng.integers(len(lvs)))]
            label = "abc"[int(np.digitize(x1 + 0.5 * x2 + 0.3 * noise, [-0.5, 0.5]))]
            cells = [f"{x1:.4f}", zone, f"{x2:.3f}", lv]
            if rng.uniform() < 0.3:
                cells[int(rng.integers(4))] = na[i % 3]
            if with_target:
                cells.insert(2, label)
            writer.writerow(cells)
    return path


def test_golden_csv_fit_predict(tmp_path):
    train = write_mixed_csv(tmp_path / "train.csv", 150, seed=51, with_target=True)
    score = write_mixed_csv(tmp_path / "score.csv", 90, seed=52, with_target=False)
    bundle, out = tmp_path / "model.bundle", tmp_path / "preds.csv"
    assert main(["fit", "--data", str(train), "--target", "y", "--budget", "6",
                 "--max-rounds", "12", "--seed", "3", "--out", str(bundle)]) == 0
    assert main(["predict", "--model", str(bundle), "--data", str(score), "--out", str(out)]) == 0
    assert sha(out.read_bytes()) == CSV_GOLDEN


# The tuner alone: 16 design points, then 8 GP-guided proposals on the
# sphere. The digest covers the point bytes of all 24 evaluations in order,
# so any change to the GP fit, the EI candidates or their refinement shows.
TUNER_GOLDEN = {
    1: "7b0dfd26b00a3924d9ea02c0fc1158191e94283896dc5dfbbd16ac2ce2d543aa",
    2: "94567a17fc00cf38a78c3febaa81a2460a3fa863793920791cb6ec92ec59c098",
    3: "caccd8893779c87a561fa160afed03c2a505a848a7ab6d9d49090686b941aeda",
}


def sphere(u):
    return float(np.sum((np.asarray(u) - 0.5) ** 2))


def tuner_digest(budget, seed):
    state = tune(sphere, budget=budget, n_init=16, seed=seed)
    assert len(state.evaluated) == budget
    return sha(b"".join(np.asarray(r.point, dtype="<f8").tobytes() for r in state.evaluated))


@pytest.mark.parametrize("seed", sorted(TUNER_GOLDEN))
def test_golden_tuner_proposals(seed):
    assert tuner_digest(24, seed) == TUNER_GOLDEN[seed]


# The benchmark's tuning size: 16 design points, then 32 GP-guided proposals,
# so the surrogate's kernel matrix grows to 47 x 47.
TUNER_GOLDEN_BUDGET_48 = {
    1: "fa7ac81727369720d5afcd908dc2030c3eacd228c1881fcdb214c1b7afe489e8",
    2: "4791062db53a200026d7e2ace708a960a5c802fd3ce1e1b633e5f8d7e47da245",
}


@pytest.mark.parametrize("seed", sorted(TUNER_GOLDEN_BUDGET_48))
def test_golden_tuner_proposals_at_budget_48(seed):
    assert tuner_digest(48, seed) == TUNER_GOLDEN_BUDGET_48[seed]


# The threshold optimizers alone: 200 seeded (prob, truth) cases each, half
# with probabilities rounded to 2 decimals so cutoffs and ratios tie. The
# digests cover the bytes of every returned cutoff or divisor vector and of
# every value, so any change to the candidates, their order, the annealing
# draws or a tie rule shows. "multiclass" draws 3 to 5 classes and
# "multiclass_wide" 8 to 12: from 8 elements on, NumPy sums an array in
# pairwise blocks, so only the wide cases pin the order of the normalizing sum.
THRESHOLD_GOLDEN = {
    "binary": {
        "thresholds": "4480482cbf617fbcbfc1f790c7143c525bc4216d4c50f124c774c54aebff010b",
        "values": "fb9825d9298ef4f68400bd72e91144039e8846c0fdb177f6de7c3553de5e17e7",
    },
    "multiclass": {
        "thresholds": "bba1122784432bae3d66a487b57e9a6308ba5b2336ad9256ce58eb39224d5368",
        "values": "6f9d97f2cf58ad428ebab2371830f2c4b8fd723cfb2668aae7ac88be44c3829c",
    },
    "multiclass_wide": {
        "thresholds": "0be7a197aabfb0d319b1109832b4465e0e930ad76f0e3814b5a6ae19befeb9bb",
        "values": "f99c8b68acb3cd15c3fa1b5915b14a13c3c33422671548ee3baa69796bd93331",
    },
}


CLASS_RANGES = {"binary": None, "multiclass": (3, 6), "multiclass_wide": (8, 13)}


def threshold_case(seed, case):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    classes = CLASS_RANGES[case]
    k = int(rng.integers(*classes)) if classes else 2
    prob = rng.dirichlet(np.ones(k), size=n)
    if seed % 2:
        prob = np.round(prob, 2)
    truth = rng.integers(0, k, size=n)
    return (prob, truth) if classes else (prob[:, 1], truth)


def threshold_digests(case):
    vectors, values = [], []
    for seed in range(200):
        prob, truth = threshold_case(seed, case)
        if CLASS_RANGES[case]:
            tv, value = optimize_multiclass_gsa(prob, truth, seed=seed)
        else:
            tv, value = optimize_binary(prob, truth)
        vectors.append(np.asarray(tv, dtype="<f8").tobytes())
        values.append(np.asarray(value, dtype="<f8").tobytes())
    return {"thresholds": sha(b"".join(vectors)), "values": sha(b"".join(values))}


@pytest.mark.parametrize("case", sorted(THRESHOLD_GOLDEN))
def test_golden_threshold_optimizers(case):
    assert threshold_digests(case) == THRESHOLD_GOLDEN[case]
