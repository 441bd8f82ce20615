"""End-to-end orchestration: split, encode, tune, threshold, package, serialize.

One fit call produces a deployable PipelineModel: fitted encoders, the
incumbent's early-stopped boosted model, optimized thresholds, and the full
tuning history. The model of the best completed evaluation is kept with its
rounds up to ``best_iteration``, the ones prediction uses (no refit on merged
data, which would invalidate the early-stopped round count). Bundles are
versioned, checksummed, compact JSON documents whose numbers round-trip
exactly; one writer stores each record (pipeline, boosted model, tree,
encoder) under its class's field names, and ``load`` checks the parts agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gbt
from .data import DataError, Dataset, check_target, split_holdout
from .encoding import ColumnEncoder, fit_encoders, transform
from .metrics import logloss, resolve_measure, rmse
from .smbo import decode_config, tune
from .threshold import apply_thresholds, optimize_binary, optimize_multiclass_gsa

FORMAT_NAME = "autoboost-pipeline"
FORMAT_VERSION = 4


class BundleError(ValueError):
    """The bundle file is corrupt or fails its checksum."""


class BundleVersionError(BundleError):
    """The bundle was written by an incompatible format version."""


@dataclass
class AutoConfig:
    """User-facing knobs; everything has a working default."""

    measure: str | None = None  # None resolves to mmce / rmse by task
    budget: int = 160
    deadline: float = 3600.0
    valid_fraction: float = 0.2
    k: int = 10
    high_card_strategy: str = "impact"
    m: float = 1.0
    max_rounds: int = 1000
    patience: int = 10
    seed: int = 1


@dataclass
class Predictions:
    task: str
    values: np.ndarray | None = None
    labels: list[str] | None = None
    probabilities: np.ndarray | None = None
    classes: tuple[str, ...] | None = None


@dataclass
class PipelineModel:
    """Deployable composite: encoders + boosted model + thresholds + history."""

    encoders: tuple[ColumnEncoder, ...]
    model: gbt.BoostedModel
    thresholds: np.ndarray | None
    task: str
    classes: tuple[str, ...] | None
    measure: str
    auto_config: dict
    history: dict
    fit_report: dict


# GBTConfig's names for the tuned penalties, since Python reserves ``lambda``;
# every other name in smbo.SPACE is a GBTConfig field as it stands.
_GBT_NAMES = {"lambda": "reg_lambda", "alpha": "reg_alpha"}


def _gbt_config(params: dict, cfg: AutoConfig) -> gbt.GBTConfig:
    tuned = {_GBT_NAMES.get(name, name): value for name, value in params.items()}
    return gbt.GBTConfig(**tuned, max_rounds=cfg.max_rounds, patience=cfg.patience, seed=cfg.seed)


def autogbt_fit(d: Dataset, cfg: AutoConfig | None = None) -> PipelineModel:
    """Fit the whole pipeline on one dataset.

    Per proposed configuration the objective trains a GBT with early stopping
    on the holdout, then (classification with a label measure) optimizes
    decision thresholds on the holdout predictions and reports the
    thresholded validation measure; regression and probability measures come
    back directly. The incumbent's trained model and thresholds become the
    deployable pipeline.
    """
    cfg = cfg if cfg is not None else AutoConfig()
    check_target(d)
    if not math.isfinite(cfg.deadline):
        raise ValueError(f"deadline must be a finite number of seconds, got {cfg.deadline}")
    # Checked before the split: inside an evaluation each would only fail it.
    for name in ("max_rounds", "patience"):
        if getattr(cfg, name) < 1:
            raise ValueError(f"{name} must be >= 1, got {getattr(cfg, name)}")
    task = d.task
    classification = task in ("binary", "multiclass")
    measure = resolve_measure(cfg.measure, task)

    train, valid = split_holdout(d, cfg.valid_fraction, cfg.seed, stratify=classification)
    # Checked here: an encoded table with no columns has no rows either.
    if not d.feature_columns:
        raise DataError("dataset has no feature columns")
    enc = fit_encoders(train, cfg.k, cfg.high_card_strategy, cfg.m)
    x_train = transform(enc, train).feature_matrix()
    x_valid = transform(enc, valid).feature_matrix()
    # Both splits map through the training classes, so a class missing from
    # the holdout shifts nothing.
    if classification:
        classes = train.classes
        n_classes = len(classes)
        y_train = train.class_indices(classes)
        y_valid = valid.class_indices(classes)
    else:
        classes = None
        n_classes = 1
        y_train = train.target_values()
        y_valid = valid.target_values()

    incumbent: dict = {"value": math.inf}

    def objective(point: np.ndarray) -> float:
        gcfg = _gbt_config(decode_config(point), cfg)
        model = gbt.train(x_train, y_train, x_valid, y_valid, task, n_classes, gcfg, measure)
        preds = gbt.predict(model, x_valid)
        thresholds: np.ndarray | None = None
        if not classification:
            value = rmse(preds, y_valid)
        elif measure == "logloss":
            value = logloss(preds, y_valid)
            thresholds = _default_thresholds(task, n_classes)
        elif task == "binary":
            thresholds, value = optimize_binary(preds[:, 1], y_valid)
        else:
            thresholds, value = optimize_multiclass_gsa(preds, y_valid, seed=cfg.seed)
        if value < incumbent["value"]:
            incumbent.update(value=value, model=model, thresholds=thresholds)
        return value

    # tune raises TuneError unless some evaluation returned a finite value,
    # so the incumbent always holds a model here.
    state = tune(objective, budget=cfg.budget, deadline=cfg.deadline, seed=cfg.seed)

    history = {
        "evaluations": [
            {"config": rec.config, "value": rec.value, "elapsed": rec.elapsed}
            for rec in state.evaluated
        ],
        "incumbent_index": state.incumbent_index,
    }
    # Prediction never reads past best_iteration; valid_history keeps every
    # trained round, so the bundle still shows why boosting stopped.
    model = incumbent["model"]
    return PipelineModel(
        encoders=enc,
        model=dataclasses.replace(model, rounds=model.rounds[: model.best_iteration]),
        thresholds=incumbent["thresholds"],
        task=task,
        classes=classes,
        measure=measure,
        auto_config=dataclasses.asdict(cfg),
        history=history,
        fit_report={"objective_value": incumbent["value"]},
    )


def _default_thresholds(task: str, n_classes: int) -> np.ndarray:
    if task == "binary":
        return np.asarray([0.5])
    return np.full(n_classes, 1.0 / n_classes)


def autogbt_predict(p: PipelineModel, newdata: Dataset) -> Predictions:
    """Predict on new data through the stored encoders, model, thresholds.

    The feature schema must match fit time; unseen categorical levels take
    the last row of their encoder's table, and extra columns (including a
    target) are ignored.
    """
    out = gbt.predict(p.model, transform(p.encoders, newdata).feature_matrix())
    if p.task == "regression":
        return Predictions(task=p.task, values=out)
    labels = [p.classes[i] for i in apply_thresholds(out, p.thresholds)]
    return Predictions(task=p.task, labels=labels, probabilities=out, classes=p.classes)


# ---------------------------------------------------------------------------
# Bundle serialization


def _to_json(obj):
    """JSON values of a fitted object: records by field name, arrays and tuples as lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, tuple) and hasattr(obj, "_asdict"):
        obj = obj._asdict()
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _to_json(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [_to_json(v) for v in obj]
    return obj


def _from_payload(payload: dict) -> PipelineModel:
    m = payload["model"]
    thresholds = payload["thresholds"]
    return PipelineModel(
        encoders=tuple(
            ColumnEncoder(
                name=c["name"],
                strategy=c["strategy"],
                levels=tuple(c["levels"]),
                table=np.asarray(c["table"], dtype=np.float64).reshape(-1, len(c["output_names"])),
                output_names=tuple(c["output_names"]),
            )
            for c in payload["encoders"]
        ),
        model=gbt.BoostedModel(
            task=m["task"],
            base_score=np.asarray(m["base_score"], dtype=np.float64),
            rounds=tuple(tuple(gbt.Tree.from_lists(**rec) for rec in group) for group in m["rounds"]),
            best_iteration=int(m["best_iteration"]),
            valid_history=tuple(float(v) for v in m["valid_history"]),
            n_features=int(m["n_features"]),
        ),
        thresholds=np.asarray(thresholds, dtype=np.float64) if thresholds is not None else None,
        task=payload["task"],
        classes=tuple(payload["classes"]) if payload["classes"] is not None else None,
        measure=payload["measure"],
        auto_config=payload["auto_config"],
        history=payload["history"],
        fit_report=payload["fit_report"],
    )


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def save(p: PipelineModel, path: str | Path) -> None:
    """Write the pipeline as a versioned, checksummed JSON document.

    The document is written in the same compact, key-sorted form that the
    checksum hashes.
    """
    payload = _to_json(p)
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "checksum": hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    Path(path).write_text(_canonical(doc), encoding="utf-8")


def load(path: str | Path) -> PipelineModel:
    """Read a bundle back; a bad file, checksum, version or payload raises BundleError."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise BundleError(f"no such bundle: {path}") from None
    except OSError as exc:
        raise BundleError(f"cannot read bundle {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BundleError(f"corrupt bundle, checksum cannot be verified: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise BundleError("not an autoboost pipeline bundle")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise BundleVersionError(
            f"bundle format version {version!r} is not supported, this build reads {FORMAT_VERSION}"
        )
    payload = doc.get("payload")
    try:
        canonical = _canonical(payload)
    except ValueError:  # json reads NaN and Infinity, which save never writes
        raise BundleError("bundle holds a non-finite number, file is corrupt") from None
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if digest != doc.get("checksum"):
        raise BundleError("bundle checksum mismatch, file is corrupt")
    try:
        p = _from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleError(f"malformed bundle payload: {exc!r}") from None
    _check_parts(p)
    return p


def _check_parts(p: PipelineModel) -> None:
    """Raise BundleError unless the parts of a loaded pipeline fit together.

    A checksum only proves the file is the one written; these checks make
    sure prediction cannot index out of range or walk a tree forever.
    """
    def fail(what: str):
        raise BundleError(f"inconsistent bundle: {what}")

    m = p.model
    if p.task not in ("regression", "binary", "multiclass") or m.task != p.task:
        fail(f"task {p.task!r} with a {m.task!r} model")
    if p.task == "regression":
        n_out = 1
    else:
        n_classes = len(p.classes) if p.classes is not None else 0
        if n_classes < 2 or (p.task == "binary" and n_classes != 2):
            fail(f"{n_classes} classes for a {p.task} task")
        # One output and one positive divisor per class for multiclass, else
        # one output and a cutoff in (0, 1).
        n_out = n_classes if p.task == "multiclass" else 1
        t = p.thresholds
        if t is None or t.shape != (n_out,):
            fail(f"thresholds {t} for a {p.task} task over {n_classes} classes")
        if p.task == "binary" and not 0.0 < t[0] < 1.0:
            fail(f"binary cutoff {t[0]} outside (0, 1)")
        if p.task == "multiclass" and not np.all(t > 0.0):
            fail(f"multiclass divisors {t.tolist()} are not all positive")
    if m.base_score.shape != ((n_out,) if p.task == "multiclass" else ()):
        fail(f"base score of shape {m.base_score.shape} for {n_out} outputs")
    if not 1 <= m.best_iteration <= len(m.rounds):
        fail(f"best_iteration {m.best_iteration} with {len(m.rounds)} rounds")
    if not p.encoders:
        fail("no encoders, so no feature and no row to score")
    width = sum(len(ce.output_names) for ce in p.encoders)
    if width != m.n_features:
        fail(f"encoders give {width} features, the model reads {m.n_features}")
    for ce in p.encoders:
        if ce.strategy != "passthrough" and len(ce.table) != len(ce.levels) + 1:
            fail(f"encoder {ce.name!r} has {len(ce.table)} rows for {len(ce.levels)} levels")
    for r, group in enumerate(m.rounds):
        if len(group) != n_out:
            fail(f"round {r} holds {len(group)} trees, expected {n_out}")
        for tree in group:
            n = tree.feature.size
            if n == 0 or any(a.shape != (n,) for a in tree):
                fail(f"round {r} has a tree whose node arrays differ in length")
            if tree.feature.min() < -1 or tree.feature.max() >= m.n_features:
                fail(f"round {r} has a feature index outside [-1, {m.n_features})")
            split = np.flatnonzero(tree.feature >= 0)
            left = tree.left[split]
            # Children numbered after their parent rule out cycles; each
            # node but the root a child of exactly one split makes it a tree.
            children = np.sort(np.concatenate([left, left + 1]))
            if np.any(left <= split) or not np.array_equal(children, np.arange(1, n)):
                fail(f"round {r} has a tree whose child links do not form a tree")
