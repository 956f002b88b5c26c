"""The model contract (`kind`, `min_history`, `predict`) and the artifact codec."""

import base64
import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.config import load_config
from stockcast.errors import ArtifactError, ConfigError, StockcastError
from stockcast.evaluation import walk_forward
from stockcast.models.artifacts import (
    FORMAT_VERSION,
    KINDS,
    dumps_artifact,
    load_artifact,
    loads_artifact,
    save_artifact,
)
from stockcast.pipeline import PipelineData, train_model

from mini_data import edit_artifact, write_mini_dataset


@pytest.fixture(scope="module")
def pipeline_data(tmp_path_factory):
    return PipelineData(load_config(write_mini_dataset(tmp_path_factory.mktemp("models"))))


@pytest.fixture(scope="module")
def trained(pipeline_data):
    """One model of every kind trained on the mini dataset's AAA panel."""
    data = pipeline_data
    return data.panel("AAA"), {kind: train_model(data, kind, "AAA") for kind in KINDS}


@pytest.mark.parametrize("kind", KINDS)
def test_model_predicts_from_min_history_and_not_before(trained, kind):
    panel, models = trained
    model = models[kind]
    assert model.kind == kind
    start = model.min_history
    entry = walk_forward(model, panel, panel.dates[start:], enforce_train_boundary=False)
    assert entry.model == kind
    assert entry.predicted.shape == (len(panel) - start,)
    assert np.all(np.isfinite(entry.predicted))
    with pytest.raises(StockcastError):  # one row earlier lacks the model's input
        walk_forward(model, panel, panel.dates[start - 1 :], enforce_train_boundary=False)


@pytest.mark.parametrize("kind", KINDS)
def test_only_a_windowed_kind_takes_a_window(pipeline_data, kind):
    w = pipeline_data.config.window // 2
    if KINDS[kind].windowed:
        assert train_model(pipeline_data, kind, "AAA", window=w).min_history == w
    else:
        with pytest.raises(ConfigError, match=f"gridsearch supports windowed models, not {kind!r}"):
            train_model(pipeline_data, kind, "AAA", window=w)


def test_an_unknown_kind_is_a_config_error(pipeline_data):
    with pytest.raises(ConfigError, match="unknown model kind 'prophet'"):
        train_model(pipeline_data, "prophet", "AAA")


def arrays_of(value, where="model"):
    """(path, array) of every array in a model, in field order."""
    if isinstance(value, np.ndarray):
        return [(where, value)]
    if is_dataclass(value):
        items = [(getattr(value, f.name), f"{where}.{f.name}") for f in fields(value)]
        return [p for v, w in items for p in arrays_of(v, w)]
    if isinstance(value, (tuple, list)):
        return [p for i, v in enumerate(value) for p in arrays_of(v, f"{where}[{i}]")]
    return []


@pytest.mark.parametrize("kind", KINDS)
def test_artifact_round_trip_keeps_text_and_predictions(trained, kind):
    panel, models = trained
    text = dumps_artifact(models[kind])
    loaded = loads_artifact(text)
    assert loaded.kind == kind
    assert dumps_artifact(loaded) == text
    before, after = arrays_of(models[kind]), arrays_of(loaded)
    assert [w for w, _ in before] == [w for w, _ in after]
    for (where, a), (_, b) in zip(before, after):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and np.array_equal(a, b), where
        assert b.flags.writeable, where
    targets = panel.dates[-10:]
    assert np.array_equal(
        walk_forward(loaded, panel, targets).predicted,
        walk_forward(models[kind], panel, targets).predicted,
    )


def corrupted(model, edit) -> str:
    return edit_artifact(dumps_artifact(model), edit)


def _drop_payload_key(doc):
    del doc["payload"]["train_end"]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("kind"), "kind"),
        (lambda doc: doc.update(kind="prophet"), "prophet"),
        (lambda doc: doc.update(kind=["persistence"]), "kind"),
        (_drop_payload_key, "train_end"),
        (lambda doc: doc.update(payload=[]), "payload"),
        (lambda doc: doc.update(payload="persistence"), "payload"),
        (lambda doc: doc["payload"].update(train_end=20210104), "persistence"),
    ],
    ids=["missing-kind", "unknown-kind", "unhashable-kind", "missing-payload-key",
         "list-payload", "string-payload", "wrong-value-type"],
)
def test_malformed_persistence_artifact_is_an_artifact_error(trained, edit, message):
    _, models = trained
    with pytest.raises(ArtifactError) as exc:
        loads_artifact(corrupted(models["persistence"], edit))
    assert message in str(exc.value)


@pytest.mark.parametrize("text", ["20210201", "2021-W05-1", "2021-2-1", "2021-02-30"])
def test_a_date_not_written_as_yyyy_mm_dd_is_refused(trained, text):
    _, models = trained
    edit = lambda doc: doc["payload"].update(train_end=text)  # noqa: E731
    with pytest.raises(ArtifactError, match=re.escape(f"train_end must be an ISO date, not {text!r}")):
        loads_artifact(corrupted(models["persistence"], edit))


def test_envelope_kind_must_match_the_decoded_model(trained):
    _, models = trained
    text = corrupted(models["lstm"], lambda doc: doc.update(kind="bilstm"))
    with pytest.raises(ArtifactError) as exc:
        loads_artifact(text)
    assert "'bilstm'" in str(exc.value) and "lstm payload" in str(exc.value)


def test_malformed_neural_payload_is_an_artifact_error(trained):
    _, models = trained

    def bad_window(doc):
        doc["payload"]["topology"]["window"] = "ten"

    with pytest.raises(ArtifactError):
        loads_artifact(corrupted(models["lstm"], bad_window))


def test_object_without_a_known_kind_cannot_be_serialized():
    with pytest.raises(ArtifactError):
        dumps_artifact(object())


def first_split(tree: dict) -> int:
    return next(i for i, f in enumerate(tree["feature"]) if f != -1)


def _self_loop(doc):
    tree = doc["payload"]["trees"][0]
    node = first_split(tree)
    tree["right"][node] = node


def _right_child_at_left_child(doc):
    tree = doc["payload"]["trees"][0]
    node = first_split(tree)
    tree["right"][node] = node + 1


def _child_past_the_end(doc):
    tree = doc["payload"]["trees"][0]
    tree["right"][first_split(tree)] = 10**6


def _feature_past_the_end(doc):
    tree = doc["payload"]["trees"][0]
    tree["feature"][first_split(tree)] = len(doc["payload"]["feature_names"])


def _short_value_array(doc):
    doc["payload"]["trees"][0]["value"].pop()


def _float_child_index(doc):
    tree = doc["payload"]["trees"][0]
    tree["right"][first_split(tree)] += 0.5


@pytest.mark.parametrize(
    "edit, message",
    [
        (_self_loop, "right child must lie after its left child i + 1"),
        (_right_child_at_left_child, "right child must lie after its left child i + 1"),
        (_child_past_the_end, "right child must lie after its left child i + 1"),
        (_feature_past_the_end, "feature"),
        (_short_value_array, "equal length"),
        (_float_child_index, "payload.trees[0].right must be an array of int64, not float64"),
    ],
    ids=["self-loop", "right-child-at-left-child", "child-past-the-end", "feature-past-the-end",
         "short-value-array", "float-child-index"],
)
def test_corrupt_forest_tree_is_an_artifact_error(trained, edit, message):
    # loading alone must refuse these; predicting from a self-loop would never end
    _, models = trained
    with pytest.raises(ArtifactError) as exc:
        loads_artifact(corrupted(models["forest"], edit))
    assert "malformed forest artifact" in str(exc.value) and message in str(exc.value)


def test_decode_errors_name_the_path_of_the_bad_value(trained):
    _, models = trained

    def bad_weight(doc):
        doc["payload"]["params"]["stacks"][0][0]["w_x"] = "weights"

    def extra_topology_key(doc):
        doc["payload"]["topology"]["cell"] = "gru"

    def short_order(doc):
        doc["payload"]["spec"]["order"] = [0, 1]

    for kind, edit, message in [
        ("lstm", bad_weight,
         "payload.params.stacks[0][0].w_x must be an array of float64, not str"),
        ("bilstm", extra_topology_key, "payload.topology has unknown key 'cell'"),
        ("arima", short_order, "payload.spec.order must have 3 items, not 2"),
    ]:
        with pytest.raises(ArtifactError) as exc:
            loads_artifact(corrupted(models[kind], edit))
        assert message in str(exc.value)


def test_a_version_1_artifact_is_refused(trained):
    _, models = trained
    for old in (1, 2, 3, 4, 5, 6):
        text = corrupted(models["arima"], lambda doc: doc.update(format_version=old))
        with pytest.raises(ArtifactError, match=f"unsupported artifact version {old}"):
            loads_artifact(text)


def _packed_bias(doc) -> dict:
    return doc["payload"]["params"]["stacks"][0][0]["b"]


def _short_data(doc):
    b = _packed_bias(doc)
    b["data"] = base64.b64encode(base64.b64decode(b["data"])[:-8]).decode()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: _packed_bias(doc).update(dtype="<i8"),
         "b must be an array of float64, not int64"),
        (lambda doc: _packed_bias(doc).update(dtype="f8"),
         "b must be an array of float64, not 'f8'"),
        (_short_data, "b.data holds 152 bytes, not the float64 array of shape [20]"),
        (lambda doc: _packed_bias(doc).update(data="not base64!"), "b.data is not base64"),
        (lambda doc: _packed_bias(doc).update(shape=[True]), "b.shape[0] must be int, not bool"),
        (lambda doc: _packed_bias(doc).update(shape=[-1]), "b.shape [-1] has a negative length"),
        (lambda doc: _packed_bias(doc).update(shape=[10**20]),
         "b.data holds 160 bytes, not the float64 array of shape [100000000000000000000]"),
        (lambda doc: _packed_bias(doc).update(shape=[0, 10**20], data=""), "b.shape"),
        (lambda doc: _packed_bias(doc).pop("shape"), "b lacks key 'shape'"),
    ],
    ids=["wrong-dtype", "unknown-dtype", "short-data", "invalid-base64", "bool-shape",
         "negative-shape", "huge-shape", "huge-empty-shape", "missing-shape"],
)
def test_malformed_binary_array_is_an_artifact_error(trained, edit, message):
    # edits the stored form itself, so no array is opened as a list
    _, models = trained
    doc = json.loads(dumps_artifact(models["lstm"]))
    edit(doc)
    with pytest.raises(ArtifactError) as exc:
        loads_artifact(json.dumps(doc))
    assert f"malformed lstm artifact: payload.params.stacks[0][0].{message}" in str(exc.value)


def _knn_closes_as_rows(doc):
    closes = doc["payload"]["train_closes"]
    closes[:] = [[v] for v in list(closes)]


def _knn_closes_cut_to_window(doc):
    payload = doc["payload"]
    del payload["train_closes"][payload["window"] :]


def _lstm_second_stack(doc):
    stacks = doc["payload"]["params"]["stacks"]
    stacks.append(stacks[0])


def _scaler_range(lo, hi):
    def edit(doc):
        doc["payload"]["scaler"].update(lo=lo, hi=hi)

    return edit


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("knn", _knn_closes_as_rows, "train_closes must be a 1-D series"),
        ("knn", _knn_closes_cut_to_window, "train_closes (10) must be longer than a window >= 1 (10)"),
        ("knn", lambda doc: doc["payload"].update(window=0), "longer than a window >= 1 (0)"),
        ("knn", lambda doc: doc["payload"].update(k=0), "k must be between 1 and the"),
        ("knn", lambda doc: doc["payload"].update(k=10**6), "training windows, not 1000000"),
        ("lstm", lambda doc: doc["payload"]["params"]["stacks"][0][0]["w_h"].pop(),
         "params.stacks[0] must have shapes [((1, 20), (5, 20), (20,))]"),
        ("lstm", lambda doc: doc["payload"]["params"]["stacks"][0][0]["w_x"][0].pop(),
         "params.stacks[0] must have shapes"),
        ("lstm", lambda doc: doc["payload"]["params"]["dense"].pop(),
         "params.dense must have shapes [((5, 3), (3,)), ((3, 1), (1,))], not [((5, 3), (3,))]"),
        ("lstm", _lstm_second_stack, "params.stacks must have 1 items, not 2"),
        ("bilstm", lambda doc: doc["payload"]["params"]["stacks"].pop(),
         "params.stacks must have 2 items, not 1"),
        ("bilstm", lambda doc: doc["payload"]["params"]["dense"][0]["w"].pop(),
         "params.dense must have shapes [((10, 3), (3,)), ((3, 1), (1,))]"),
        ("linreg", lambda doc: doc["payload"]["coefficients"].pop(),
         "coefficients must be a vector of the 10 features"),
        ("lstm", _scaler_range(3.0, 3.0), "scaler needs finite lo < hi, not lo=3.0, hi=3.0"),
        ("knn", _scaler_range(4.0, 3.0), "scaler needs finite lo < hi, not lo=4.0, hi=3.0"),
        ("bilstm", _scaler_range(float("nan"), 3.0), "scaler needs finite lo < hi, not lo=nan"),
        ("lstm", _scaler_range(1.0, float("inf")),
         "scaler needs finite lo < hi, not lo=1.0, hi=inf"),
        ("arima", lambda doc: doc["payload"]["ma"].clear(),
         "ma must hold the spec's 1 coefficients, not shape (0,)"),
        ("arima", lambda doc: doc["payload"]["seasonal_ar"].append(0.5),
         "seasonal_ar must hold the spec's 0 coefficients, not shape (1,)"),
    ],
    ids=["knn-closes-2d", "knn-closes-within-window", "knn-window-zero", "knn-k-zero", "knn-k-past-rows",
         "lstm-short-w-h", "lstm-short-w-x", "lstm-dense-dropped", "lstm-backward-layers",
         "bilstm-no-backward-layers", "bilstm-narrow-dense", "linreg-short-coefficients",
         "scaler-hi-equals-lo", "scaler-hi-below-lo", "scaler-nan-lo", "scaler-infinite-hi",
         "arima-ma-emptied", "arima-seasonal-ar-added"],
)
def test_model_invariant_violation_is_an_artifact_error(trained, kind, edit, message):
    _, models = trained
    with pytest.raises(ArtifactError) as exc:
        loads_artifact(corrupted(models[kind], edit))
    assert f"malformed {kind} artifact" in str(exc.value) and message in str(exc.value)


def _set_first(value, *keys):
    def edit(doc):
        node = doc["payload"]
        for key in keys:
            node = node[key]
        node[0] = value

    return edit


@pytest.mark.parametrize(
    "kind, edit, message",
    [
        ("lstm", _set_first(float("nan"), "params", "dense", 1, "b"),
         "payload.params.dense[1].b"),
        ("arima", _set_first(float("inf"), "ma"), "payload.ma"),
        ("forest", _set_first(float("nan"), "trees", 0, "threshold"),
         "payload.trees[0].threshold"),
    ],
    ids=["lstm-dense-bias-nan", "arima-ma-inf", "forest-threshold-nan"],
)
def test_non_finite_artifact_array_is_an_artifact_error(trained, kind, edit, message):
    _, models = trained
    with pytest.raises(ArtifactError, match=re.escape(f"{message} holds a non-finite value")):
        loads_artifact(corrupted(models[kind], edit))


def test_artifact_file_errors_name_the_file(trained, tmp_path):
    _, models = trained
    path = save_artifact(models["knn"], tmp_path / "AAA_knn.json")
    path.write_text(corrupted(models["knn"], lambda doc: doc["payload"].update(k="5")))
    message = "AAA_knn.json: malformed knn artifact: payload.k must be int, not str"
    with pytest.raises(ArtifactError, match=re.escape(message)):
        load_artifact(path)
    path.write_bytes(b"\xff" + dumps_artifact(models["knn"]).encode())
    with pytest.raises(ArtifactError, match="AAA_knn.json: artifact is not UTF-8 text"):
        load_artifact(path)
    path.write_text(corrupted(models["knn"], lambda doc: doc.update(format_version=4)))
    with pytest.raises(ArtifactError, match="AAA_knn.json: unsupported artifact version 4"):
        load_artifact(path)
    path = tmp_path / "AAA_lstm.json"
    path.write_text(corrupted(models["lstm"], lambda doc: doc["payload"].update(scaler=None)))
    message = "AAA_lstm.json: malformed lstm artifact: payload.scaler must be an object, not null"
    with pytest.raises(ArtifactError, match=re.escape(message)):
        load_artifact(path)


def test_arima_coefficients_beyond_the_spec_are_refused_naming_the_file(trained, tmp_path):
    _, models = trained
    path = save_artifact(models["arima"], tmp_path / "AAA_arima.json")
    padded = corrupted(models["arima"], lambda doc: doc["payload"]["ma"].extend([0.1, 0.2]))
    path.write_text(padded)
    message = (
        "AAA_arima.json: malformed arima artifact: "
        "ma must hold the spec's 1 coefficients, not shape (3,)"
    )
    with pytest.raises(ArtifactError, match=re.escape(message)):
        load_artifact(path)


def test_the_arima_artifact_holds_no_training_series(trained):
    _, models = trained
    payload = json.loads(dumps_artifact(models["arima"]))["payload"]
    assert sorted(payload) == [
        "ar", "converged", "css", "ma", "n_evals", "seasonal_ar", "seasonal_ma", "spec",
        "train_end",
    ]


README = Path(__file__).parents[1] / "README.md"


def test_readme_names_the_artifact_format_version():
    readme = README.read_text(encoding="utf-8")
    assert re.findall(r"artifact format is version (\d+)", readme) == [str(FORMAT_VERSION)]


def test_the_readme_snippet_reads_back_the_first_lstm_weight(trained, tmp_path, monkeypatch):
    (snippet,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    _, models = trained
    save_artifact(models["lstm"], tmp_path / "out" / "artifacts" / "ALFA_lstm.json")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(snippet, scope)
    assert np.array_equal(scope["w_x"], models["lstm"].params.stacks[0][0].w_x)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def edit_somewhere(data, doc) -> None:
    """Drop, add, or replace one entry of a randomly chosen object or list in `doc`."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        inner = [k for k in keys if isinstance(node[k], (dict, list))]
        if not inner or data.draw(st.booleans()):
            break
        node = node[data.draw(st.sampled_from(inner))]
    edits = ["drop", "add", "replace"] if keys else ["add"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "drop":
        del node[data.draw(st.sampled_from(keys))]
    elif edit == "replace":
        node[data.draw(st.sampled_from(keys))] = data.draw(JSON_VALUES)
    elif isinstance(node, dict):
        node[data.draw(st.text(max_size=8))] = data.draw(JSON_VALUES)
    else:
        node.append(data.draw(JSON_VALUES))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_an_edited_artifact_loads_or_is_an_artifact_error(trained, kind, data):
    _, models = trained
    doc = json.loads(dumps_artifact(models[kind]))
    edit_somewhere(data, doc)
    try:
        model = loads_artifact(json.dumps(doc))
    except ArtifactError:
        return
    # whatever loads is a fixed point of dump -> load -> dump
    text = dumps_artifact(model)
    assert dumps_artifact(loads_artifact(text)) == text
