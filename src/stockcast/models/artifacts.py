"""Versioned JSON envelope for trained model artifacts.

The payload is the model dataclass itself: `_encode` writes its fields,
and `_decode` rebuilds them from the class's type hints, naming the path
of any missing or unknown key or wrongly typed value. An artifact stores
each array as `{"data", "dtype", "shape"}`, `data` being the base64 of its
little-endian C-order bytes, and scalars as JSON numbers at full repr
precision, so serialization round-trips bit-exactly; no timestamps or
other run-varying fields are written, so a rerun with the same seed
produces byte-identical files. The saved forecast report goes through
the same pair with its arrays as plain JSON lists.

`KINDS` is the one table of model kinds: each kind's artifact class,
report label, and whether it is windowed and reads sentiment.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, fields, is_dataclass
from datetime import date
from functools import cache
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from ..errors import ArtifactError, SchemaMismatch
from ..series import parse_trading_date
from .arima import ArimaModel
from .forest import ForestModel
from .knn import KnnModel
from .linear import LinearModel
from .lstm import NeuralModelArtifact
from .persistence import PersistenceModel
from .trend import TrendModel

FORMAT_NAME = "stockcast-artifact"
FORMAT_VERSION = 7


@dataclass(frozen=True)
class KindSpec:
    cls: type  # the model class an artifact's payload decodes to
    label: str  # the kind's name in report.md
    windowed: bool  # fits on sliding windows, whose length gridsearch-window sweeps
    sentiment: bool = False  # reads the sentiment columns; no other kind reads the news


# every model kind, in report order; the persistence baseline comes last
KINDS = {
    "lstm": KindSpec(NeuralModelArtifact, "LSTM", windowed=True),
    "bilstm": KindSpec(NeuralModelArtifact, "Bidirectional LSTM", windowed=True),
    "linreg": KindSpec(LinearModel, "Linear regression", windowed=True),
    "arima": KindSpec(ArimaModel, "ARIMA", windowed=False),
    "knn": KindSpec(KnnModel, "KNN", windowed=True),
    "additive": KindSpec(TrendModel, "Additive trend", windowed=False),
    "forest": KindSpec(ForestModel, "Random forest (sentiment)", windowed=False, sentiment=True),
    "persistence": KindSpec(PersistenceModel, "Persistence", windowed=False),
}
MODEL_KINDS = tuple(KINDS)[:-1]  # what `--model all` trains: every kind but persistence

# JSON types each scalar annotation accepts (bool is not an int here)
_SCALARS = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}

# the dtype of each "dtype" text `_encode` writes for a model's arrays
_DTYPE_NAMES = {"<f8": "float64", "<i8": "int64"}


@dataclass
class _Binary:
    """An array as an artifact stores it."""

    data: str
    dtype: str
    shape: tuple[int, ...]


def _encode(value, binary: bool = False):
    """Plain JSON data for a dataclass, array, date, or container of them.

    An array becomes a `_Binary` object when `binary` is set and a nested
    list otherwise.
    """
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name), binary) for f in fields(value)}
    if isinstance(value, np.ndarray):
        if not binary:
            return value.tolist()
        little = value.astype(value.dtype.newbyteorder("<"), copy=False)
        data = base64.b64encode(little.tobytes()).decode("ascii")
        return {"data": data, "dtype": little.dtype.str, "shape": list(value.shape)}
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, (tuple, list)):
        return [_encode(v, binary) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v, binary) for k, v in value.items()}
    return value


@cache
def _field_hints(cls) -> dict:
    """A dataclass's field names, in order, with their resolved annotations."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _json_type(value) -> str:
    return "null" if value is None else type(value).__name__


def _binary_array(dtype: np.dtype, value: dict, where: str) -> np.ndarray:
    """The writable `dtype` array a `_Binary` object holds; a float array
    must be finite."""
    packed = _decode(_Binary, value, where)
    if packed.dtype != dtype.newbyteorder("<").str:
        found = _DTYPE_NAMES.get(packed.dtype, repr(packed.dtype))
        raise SchemaMismatch(f"{where} must be an array of {dtype}, not {found}")
    if any(n < 0 for n in packed.shape):
        raise SchemaMismatch(f"{where}.shape {list(packed.shape)} has a negative length")
    try:
        data = base64.b64decode(packed.data, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise SchemaMismatch(f"{where}.data is not base64: {exc}") from None
    # the shape is checked against bytes already read, so it allocates nothing
    if len(data) != dtype.itemsize * math.prod(packed.shape):
        raise SchemaMismatch(
            f"{where}.data holds {len(data)} bytes, not the {dtype} array of shape "
            f"{list(packed.shape)}"
        )
    try:
        array = np.frombuffer(data, packed.dtype).astype(dtype).reshape(packed.shape)
    except ValueError as exc:  # over 64 axes, or an axis too long for numpy
        raise SchemaMismatch(f"{where}.shape: {exc}") from None
    if dtype.kind == "f" and not np.isfinite(array).all():
        raise SchemaMismatch(f"{where} holds a non-finite value")
    return array


def _list_array(dtype: np.dtype, value, where: str) -> np.ndarray:
    """The `dtype` array a nested JSON list holds; its own dtype must cast
    safely to `dtype`, which rejects strings, nulls and 1.5 in an int64 array."""
    try:
        array = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"{where}: {exc}") from None
    if not np.can_cast(array.dtype, dtype):
        raise SchemaMismatch(f"{where} must be an array of {dtype}, not {array.dtype}")
    return array.astype(dtype, copy=False)


def _decode(hint, value, where: str, binary: bool = False):
    """Inverse of `_encode` for a value annotated `hint`, found at path `where`.

    Every dataclass key must be present and known, and every value must
    have the JSON type its annotation implies. An array's dtype is float64
    for a bare `np.ndarray` and declared as `NDArray[...]` otherwise; it is
    read from a `_Binary` object when `binary` is set and from a nested
    list otherwise.
    """
    origin, args = get_origin(hint), get_args(hint)
    if hint is np.ndarray or origin is np.ndarray:
        dtype = np.dtype(get_args(args[-1])[0] if args else np.float64)
        form = dict if binary else (list, int, float)
        if isinstance(value, bool) or not isinstance(value, form):
            raise SchemaMismatch(f"{where} must be an array of {dtype}, not {_json_type(value)}")
        return (_binary_array if binary else _list_array)(dtype, value, where)
    if origin in (Union, UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, where, binary)
    if is_dataclass(hint) or dict in (hint, origin):
        if not isinstance(value, dict):
            raise SchemaMismatch(f"{where} must be an object, not {_json_type(value)}")
        if hint is dict:
            return value
        if origin is dict:
            key_type, value_type = args
            try:
                keys = [key_type(k) for k in value]
            except ValueError:
                raise SchemaMismatch(f"{where} keys must be {key_type.__name__} text") from None
            items = zip(keys, value.values())
            return {k: _decode(value_type, v, f"{where}[{k!r}]", binary) for k, v in items}
        hints = _field_hints(hint)
        unknown = sorted(value.keys() - hints.keys())
        if unknown:
            raise SchemaMismatch(f"{where} has unknown key {unknown[0]!r}")
        missing = [n for n in hints if n not in value]
        if missing:
            raise SchemaMismatch(f"{where} lacks key {missing[0]!r}")
        return hint(**{n: _decode(h, value[n], f"{where}.{n}", binary) for n, h in hints.items()})
    if origin in (tuple, list):
        if not isinstance(value, list):
            raise SchemaMismatch(f"{where} must be a list, not {_json_type(value)}")
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise SchemaMismatch(f"{where} must have {len(args)} items, not {len(value)}")
        items = enumerate(zip(args, value))
        return origin(_decode(a, v, f"{where}[{i}]", binary) for i, (a, v) in items)
    if hint is date:
        try:
            return parse_trading_date(value)
        except (TypeError, ValueError):
            raise SchemaMismatch(f"{where} must be an ISO date, not {value!r}") from None
    if type(value) not in _SCALARS[hint]:
        raise SchemaMismatch(f"{where} must be {hint.__name__}, not {_json_type(value)}")
    try:
        return hint(value)
    except OverflowError:
        raise SchemaMismatch(f"{where} is out of range for {hint.__name__}") from None


def dumps_artifact(model) -> str:
    kind = getattr(model, "kind", None)
    if kind not in KINDS:
        raise ArtifactError(f"cannot serialize model of type {type(model).__name__}")
    doc = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "payload": _encode(model, binary=True),
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
    if not isinstance(kind, str) or kind not in KINDS:
        raise ArtifactError(f"unknown artifact kind {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ArtifactError(f"{kind} artifact has no payload object")
    try:
        model = _decode(KINDS[kind].cls, payload, "payload", binary=True)
    except (SchemaMismatch, ValueError) as exc:
        raise ArtifactError(f"malformed {kind} artifact: {exc}") from None
    if model.kind != kind:
        raise ArtifactError(f"artifact kind {kind!r} does not match its {model.kind} payload")
    return model


def save_artifact(model, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_artifact(model), encoding="utf-8")
    return path


def load_artifact(path: str | Path):
    """`loads_artifact` of a file; every error names the file."""
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"artifact file not found: {path}")
    try:
        return loads_artifact(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path.name}: artifact is not UTF-8 text: {exc}") from None
    except ArtifactError as exc:
        raise ArtifactError(f"{path.name}: {exc}") from None
