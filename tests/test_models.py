"""The model contract (`kind`, `min_history`, `predict`) and the artifact codec."""

import json

import numpy as np
import pytest

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
