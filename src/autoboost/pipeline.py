"""End-to-end orchestration: split, encode, tune, threshold, package, serialize.

One fit call produces a deployable PipelineModel: fitted encoders, the
incumbent's early-stopped boosted model, optimized thresholds, and the full
tuning history. The model of the best completed evaluation is kept with its
rounds up to ``best_iteration``, the ones prediction uses (no refit on merged
data, which would invalidate the early-stopped round count). Bundles are
versioned, checksummed, compact JSON documents whose numbers round-trip
exactly; each tree is stored as its node arrays and each encoder as its
level table.
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
from .data import DataError, Dataset, split_holdout
from .encoding import ColumnEncoder, EncoderModel, fit_encoders, transform
from .metrics import Measure, default_measure, get_measure, logloss, rmse
from .smbo import decode_config, tune
from .threshold import ThresholdVector, apply_thresholds, optimize_binary, optimize_multiclass_gsa

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

    encoders: EncoderModel
    model: gbt.BoostedModel
    thresholds: ThresholdVector | None
    task: str
    classes: tuple[str, ...] | None
    measure: str
    auto_config: dict
    history: dict
    fit_report: dict


def _resolve_measure(cfg: AutoConfig, task: str) -> Measure:
    measure = get_measure(cfg.measure) if cfg.measure else default_measure(task)
    if task == "regression" and measure.requires != "numeric":
        raise DataError(f"measure {measure.name!r} does not apply to regression")
    if task != "regression" and measure.requires == "numeric":
        raise DataError(f"measure {measure.name!r} does not apply to classification")
    return measure


def _gbt_config(params: dict, cfg: AutoConfig) -> gbt.GBTConfig:
    return gbt.GBTConfig(
        eta=params["eta"],
        gamma=params["gamma"],
        max_depth=params["max_depth"],
        colsample_bytree=params["colsample_bytree"],
        colsample_bylevel=params["colsample_bylevel"],
        reg_lambda=params["lambda"],
        reg_alpha=params["alpha"],
        subsample=params["subsample"],
        max_rounds=cfg.max_rounds,
        patience=cfg.patience,
        seed=cfg.seed,
    )


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
    if d.target is None:
        raise DataError("fitting requires a dataset with a target column")
    task = d.task
    classification = task in ("binary", "multiclass")
    measure = _resolve_measure(cfg, task)

    split = split_holdout(d, cfg.valid_fraction, cfg.seed, stratify=classification)
    enc = fit_encoders(split.train, cfg.k, cfg.high_card_strategy, cfg.m)
    train_enc = transform(enc, split.train)
    valid_enc = transform(enc, split.valid)
    x_train = train_enc.feature_matrix()
    x_valid = valid_enc.feature_matrix()
    # The one place labels become indices: both splits map through the
    # training classes, so a class missing from the holdout shifts nothing.
    if classification:
        classes = train_enc.classes
        n_classes = len(classes)
        y_train = train_enc.class_indices(classes)
        y_valid = valid_enc.class_indices(classes)
    else:
        classes = None
        n_classes = 1
        y_train = np.asarray(train_enc.target_values(), dtype=np.float64)
        y_valid = np.asarray(valid_enc.target_values(), dtype=np.float64)

    incumbent: dict = {"value": math.inf}

    def objective(point: np.ndarray) -> float:
        params = decode_config(point)
        gcfg = _gbt_config(params, cfg)
        model = gbt.train(x_train, y_train, x_valid, y_valid, task, n_classes, gcfg, measure)
        preds = gbt.predict(model, x_valid)
        thresholds: ThresholdVector | None = None
        if not classification:
            value = rmse(preds, y_valid)
        elif measure.requires == "probabilities":
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
        thresholds=incumbent["thresholds"] if classification else None,
        task=task,
        classes=classes,
        measure=measure.name,
        auto_config=dataclasses.asdict(cfg),
        history=history,
        fit_report={"objective_value": incumbent["value"]},
    )


def _default_thresholds(task: str, n_classes: int) -> ThresholdVector:
    if task == "binary":
        return ThresholdVector(np.asarray([0.5]))
    return ThresholdVector(np.full(n_classes, 1.0 / n_classes))


def autogbt_predict(p: PipelineModel, newdata: Dataset) -> Predictions:
    """Predict on new data through the stored encoders, model, thresholds.

    The feature schema must match fit time; unseen categorical levels take
    the last row of their encoder's table, and extra columns (including a
    target) are ignored.
    """
    encoded = transform(p.encoders, newdata)
    x = encoded.feature_matrix()
    raw = gbt.predict(p.model, x)
    if p.task == "regression":
        return Predictions(task=p.task, values=raw)
    labels = [p.classes[i] for i in apply_thresholds(raw, p.thresholds)]
    return Predictions(
        task=p.task, labels=labels, probabilities=raw, classes=p.classes
    )


# ---------------------------------------------------------------------------
# Bundle serialization


def _model_to_dict(m: gbt.BoostedModel) -> dict:
    return {
        "task": m.task,
        "base_score": np.asarray(m.base_score).tolist(),
        "rounds": [
            [{name: a.tolist() for name, a in tree._asdict().items()} for tree in group]
            for group in m.rounds
        ],
        "best_iteration": m.best_iteration,
        "valid_history": list(m.valid_history),
        "n_features": m.n_features,
    }


def _model_from_dict(d: dict) -> gbt.BoostedModel:
    return gbt.BoostedModel(
        task=d["task"],
        base_score=np.asarray(d["base_score"]),
        rounds=tuple(tuple(gbt.Tree.from_lists(**rec) for rec in group) for group in d["rounds"]),
        best_iteration=int(d["best_iteration"]),
        valid_history=tuple(float(v) for v in d["valid_history"]),
        n_features=int(d["n_features"]),
    )


def _encoders_to_list(enc: EncoderModel) -> list:
    return [
        {
            "name": ce.name,
            "strategy": ce.strategy,
            "levels": list(ce.levels),
            "table": ce.table.tolist(),
            "output_names": list(ce.output_names),
        }
        for ce in enc.encoders
    ]


def _encoders_from_list(records: list) -> EncoderModel:
    return EncoderModel(tuple(
        ColumnEncoder(
            name=c["name"],
            strategy=c["strategy"],
            levels=tuple(c["levels"]),
            table=np.asarray(c["table"], dtype=np.float64).reshape(-1, len(c["output_names"])),
            output_names=tuple(c["output_names"]),
        )
        for c in records
    ))


def _to_payload(p: PipelineModel) -> dict:
    return {
        "task": p.task,
        "classes": list(p.classes) if p.classes is not None else None,
        "measure": p.measure,
        "encoders": _encoders_to_list(p.encoders),
        "model": _model_to_dict(p.model),
        "thresholds": p.thresholds.t.tolist() if p.thresholds is not None else None,
        "auto_config": p.auto_config,
        "history": p.history,
        "fit_report": p.fit_report,
    }


def _from_payload(payload: dict) -> PipelineModel:
    thresholds = payload["thresholds"]
    return PipelineModel(
        encoders=_encoders_from_list(payload["encoders"]),
        model=_model_from_dict(payload["model"]),
        thresholds=ThresholdVector(np.asarray(thresholds)) if thresholds is not None else None,
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
    payload = _to_payload(p)
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "checksum": hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest(),
        "payload": payload,
    }
    Path(path).write_text(_canonical(doc), encoding="utf-8")


def load(path: str | Path) -> PipelineModel:
    """Read a bundle back; bad checksums and foreign versions raise, not crash."""
    path = Path(path)
    if not path.exists():
        raise BundleError(f"no such bundle: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BundleError(f"corrupt bundle, checksum cannot be verified: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise BundleError("not an autoboost pipeline bundle")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise BundleVersionError(
            f"bundle format version {version!r} is not supported, this build reads {FORMAT_VERSION}"
        )
    payload = doc.get("payload")
    canonical = _canonical(payload)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    if digest != doc.get("checksum"):
        raise BundleError("bundle checksum mismatch, file is corrupt")
    return _from_payload(payload)
