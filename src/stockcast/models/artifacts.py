"""Versioned JSON envelope for trained model artifacts.

Floats are emitted at full repr precision, so serialization round-trips
bit-exactly; no timestamps or other run-varying fields are written, so a
rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from datetime import date
from pathlib import Path

import numpy as np

from ..dataset import MinMaxScaler
from ..errors import ArtifactError
from .arima import ArimaModel, ArimaSpec
from .forest import ForestConfig, ForestModel, RegressionTree
from .knn import KnnModel
from .linear import LinearModel
from .lstm import DenseParams, LayerParams, LstmParams, LstmTopology, NeuralModelArtifact
from .persistence import PersistenceModel
from .trend import TrendModel

FORMAT_NAME = "stockcast-artifact"
FORMAT_VERSION = 1

MODEL_KINDS = ("lstm", "bilstm", "linreg", "arima", "knn", "additive", "forest")
ALL_KINDS = MODEL_KINDS + ("persistence",)


def _arr(a) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def _date(d) -> str | None:
    return None if d is None else d.isoformat()


def _parse_date(s) -> date | None:
    return None if s is None else date.fromisoformat(s)


def _scaler_payload(scaler: MinMaxScaler | None) -> dict | None:
    if scaler is None:
        return None
    return {
        "mins": _arr(scaler.mins),
        "maxs": _arr(scaler.maxs),
        "feature_names": list(scaler.feature_names),
    }


def _scaler_from(payload: dict | None) -> MinMaxScaler | None:
    if payload is None:
        return None
    return MinMaxScaler(
        mins=np.asarray(payload["mins"], dtype=np.float64),
        maxs=np.asarray(payload["maxs"], dtype=np.float64),
        feature_names=tuple(payload["feature_names"]),
    )


def _neural_payload(model: NeuralModelArtifact) -> dict:
    def layer(l: LayerParams) -> dict:
        return {"w_x": _arr(l.w_x), "w_h": _arr(l.w_h), "b": _arr(l.b)}

    return {
        "topology": asdict(model.topology),
        "params": {
            "layers": [layer(l) for l in model.params.layers],
            "backward_layers": [layer(l) for l in model.params.backward_layers],
            "dense": [{"w": _arr(d.w), "b": _arr(d.b)} for d in model.params.dense],
        },
        "scaler": _scaler_payload(model.scaler),
        "history": list(model.history),
        "seed": model.seed,
        "best_epoch": model.best_epoch,
        "train_end": _date(model.train_end),
    }


def _neural_from(payload: dict) -> NeuralModelArtifact:
    def layer(d: dict) -> LayerParams:
        return LayerParams(
            w_x=np.asarray(d["w_x"], dtype=np.float64),
            w_h=np.asarray(d["w_h"], dtype=np.float64),
            b=np.asarray(d["b"], dtype=np.float64),
        )

    params = LstmParams(
        layers=[layer(d) for d in payload["params"]["layers"]],
        backward_layers=[layer(d) for d in payload["params"]["backward_layers"]],
        dense=[
            DenseParams(np.asarray(d["w"], dtype=np.float64), np.asarray(d["b"], dtype=np.float64))
            for d in payload["params"]["dense"]
        ],
    )
    return NeuralModelArtifact(
        topology=LstmTopology(**payload["topology"]),
        params=params,
        scaler=_scaler_from(payload["scaler"]),
        history=tuple(payload["history"]),
        seed=payload["seed"],
        best_epoch=payload["best_epoch"],
        train_end=_parse_date(payload["train_end"]),
    )


def _forest_payload(model: ForestModel) -> dict:
    return {
        "config": asdict(model.config),
        "feature_names": list(model.feature_names),
        "trees": [
            {
                "feature": np.asarray(t.feature).tolist(),
                "threshold": _arr(t.threshold),
                "left": np.asarray(t.left).tolist(),
                "right": np.asarray(t.right).tolist(),
                "value": _arr(t.value),
            }
            for t in model.trees
        ],
        "train_end": _date(model.train_end),
    }


def _forest_from(payload: dict) -> ForestModel:
    trees = tuple(
        RegressionTree(
            feature=np.asarray(t["feature"], dtype=np.int64),
            threshold=np.asarray(t["threshold"], dtype=np.float64),
            left=np.asarray(t["left"], dtype=np.int64),
            right=np.asarray(t["right"], dtype=np.int64),
            value=np.asarray(t["value"], dtype=np.float64),
        )
        for t in payload["trees"]
    )
    return ForestModel(
        trees=trees,
        feature_names=tuple(payload["feature_names"]),
        config=ForestConfig(**payload["config"]),
        train_end=_parse_date(payload["train_end"]),
    )


def _fields_payload(model, arrays: tuple[str, ...] = ()) -> dict:
    """A model's own fields as its payload: `arrays` as float lists, train_end as ISO text."""
    payload = {f.name: getattr(model, f.name) for f in fields(model)}
    for name in arrays:
        payload[name] = _arr(payload[name])
    payload["train_end"] = _date(model.train_end)
    return payload


def _from_fields(cls, payload: dict, arrays: tuple[str, ...] = ()):
    """Inverse of _fields_payload: every payload key is a constructor argument."""
    kwargs = dict(payload, train_end=_parse_date(payload["train_end"]))
    for name in arrays:
        kwargs[name] = np.asarray(kwargs[name], dtype=np.float64)
    return cls(**kwargs)


_KNN_ARRAYS = ("train_inputs", "train_targets")


def _knn_payload(model: KnnModel) -> dict:
    payload = _fields_payload(model, _KNN_ARRAYS)
    payload["cv_rmse"] = {str(k): v for k, v in model.cv_rmse.items()}
    payload["scaler"] = _scaler_payload(model.scaler)
    return payload


def _knn_from(payload: dict) -> KnnModel:
    cv_rmse = {int(k): v for k, v in payload["cv_rmse"].items()}
    scaler = _scaler_from(payload["scaler"])
    return _from_fields(KnnModel, dict(payload, cv_rmse=cv_rmse, scaler=scaler), _KNN_ARRAYS)


_ARIMA_ARRAYS = ("ar", "seasonal_ar", "ma", "seasonal_ma", "train_series")
_ARIMA_SPEC_KEYS = ("order", "seasonal_order", "max_evals")


def _arima_payload(model: ArimaModel) -> dict:
    payload = _fields_payload(model, _ARIMA_ARRAYS)
    payload.update(asdict(payload.pop("spec")))  # the spec's keys sit at the top level
    return payload


def _arima_from(payload: dict) -> ArimaModel:
    spec = ArimaSpec(
        order=tuple(payload["order"]),
        seasonal_order=tuple(payload["seasonal_order"]),
        max_evals=payload["max_evals"],
    )
    rest = {k: v for k, v in payload.items() if k not in _ARIMA_SPEC_KEYS}
    return _from_fields(ArimaModel, dict(rest, spec=spec), _ARIMA_ARRAYS)


# kind -> (model to payload, payload to model)
_CODECS = {
    "lstm": (_neural_payload, _neural_from),
    "bilstm": (_neural_payload, _neural_from),
    "linreg": (
        lambda model: _fields_payload(model, ("coefficients",)),
        lambda payload: _from_fields(LinearModel, payload, ("coefficients",)),
    ),
    "arima": (_arima_payload, _arima_from),
    "knn": (_knn_payload, _knn_from),
    "additive": (_fields_payload, lambda payload: _from_fields(TrendModel, payload)),
    "forest": (_forest_payload, _forest_from),
    "persistence": (_fields_payload, lambda payload: _from_fields(PersistenceModel, payload)),
}


def dumps_artifact(model) -> str:
    kind = getattr(model, "kind", None)
    if kind not in _CODECS:
        raise ArtifactError(f"cannot serialize model of type {type(model).__name__}")
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "payload": _CODECS[kind][0](model),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads_artifact(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"artifact is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ArtifactError("not a stockcast artifact")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ArtifactError(f"unsupported artifact version {doc.get('format_version')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _CODECS:
        raise ArtifactError(f"unknown artifact kind {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ArtifactError(f"{kind} artifact has no payload object")
    try:
        model = _CODECS[kind][1](payload)
    except KeyError as exc:
        raise ArtifactError(f"{kind} artifact payload lacks {exc}") from None
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise ArtifactError(f"malformed {kind} artifact payload: {exc}") from None
    if model.kind != kind:
        raise ArtifactError(f"artifact kind {kind!r} does not match its {model.kind} payload")
    return model


def save_artifact(model, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_artifact(model), encoding="utf-8")
    return path


def load_artifact(path: str | Path):
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"artifact file not found: {path}")
    return loads_artifact(path.read_text(encoding="utf-8"))
