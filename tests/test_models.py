"""The model contract (`kind`, `min_history`, `predict`) and the artifact codec."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stockcast.config import load_config
from stockcast.errors import ArtifactError, StockcastError
from stockcast.evaluation import walk_forward
from stockcast.models.artifacts import ALL_KINDS, dumps_artifact, loads_artifact
from stockcast.pipeline import PipelineData, train_model

from mini_data import write_mini_dataset


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One model of every kind trained on the mini dataset's AAA panel."""
    config = load_config(write_mini_dataset(tmp_path_factory.mktemp("models")))
    data = PipelineData(config)
    return data.panel("AAA"), {kind: train_model(data, kind, "AAA") for kind in ALL_KINDS}


@pytest.mark.parametrize("kind", ALL_KINDS)
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


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_artifact_round_trip_keeps_text_and_predictions(trained, kind):
    panel, models = trained
    text = dumps_artifact(models[kind])
    loaded = loads_artifact(text)
    assert loaded.kind == kind
    assert dumps_artifact(loaded) == text
    targets = panel.dates[-10:]
    assert np.array_equal(
        walk_forward(loaded, panel, targets).predicted,
        walk_forward(models[kind], panel, targets).predicted,
    )


def corrupted(model, edit) -> str:
    doc = json.loads(dumps_artifact(model))
    edit(doc)
    return json.dumps(doc)


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
    tree["left"][node] = node


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
    tree["left"][first_split(tree)] += 0.5


@pytest.mark.parametrize(
    "edit, message",
    [
        (_self_loop, "later nodes"),
        (_child_past_the_end, "later nodes"),
        (_feature_past_the_end, "feature"),
        (_short_value_array, "equal length"),
        (_float_child_index, "payload.trees[0].left must be an array of int64, not float64"),
    ],
    ids=["self-loop", "child-past-the-end", "feature-past-the-end", "short-value-array",
         "float-child-index"],
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
        doc["payload"]["params"]["layers"][0]["w_x"] = "weights"

    def extra_topology_key(doc):
        doc["payload"]["topology"]["cell"] = "gru"

    def short_order(doc):
        doc["payload"]["spec"]["order"] = [0, 1]

    for kind, edit, message in [
        ("lstm", bad_weight, "payload.params.layers[0].w_x must be an array of float64, not str"),
        ("bilstm", extra_topology_key, "payload.topology has unknown key 'cell'"),
        ("arima", short_order, "payload.spec.order must have 3 items, not 2"),
    ]:
        with pytest.raises(ArtifactError) as exc:
            loads_artifact(corrupted(models[kind], edit))
        assert message in str(exc.value)


def test_a_version_1_artifact_is_refused(trained):
    _, models = trained
    for old in (1, 2, 3):
        text = corrupted(models["arima"], lambda doc: doc.update(format_version=old))
        with pytest.raises(ArtifactError, match=f"unsupported artifact version {old}"):
            loads_artifact(text)


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


@pytest.mark.parametrize("kind", ALL_KINDS)
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
